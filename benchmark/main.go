// Command benchmark is this repository's end-to-end benchmark: four
// workloads × six end-to-end metrics, plus a traced pass that yields the
// per-layer metrics. BENCHMARK.json at the repository root declares the
// names, units and bounds; README.md in this directory explains every
// one of them and how the epoch estimator keeps a number meaning the
// same thing twice.
//
//	bash benchmark/run.sh --workload fem-cg --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh                  # all four workloads, one process each
//	bash benchmark/run.sh --trace 1        # traced pass: per-layer metrics + span files
//	bash benchmark/run.sh --aa 5           # A/A self-check against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

const (
	defaultSeed    = 7
	defaultSeconds = 20
	tracedEpochs   = 3
	minEpochs      = 7
)

// pinnedIterations is the total iteration count of one epoch's verified
// solves for the default seed, on amd64 (other architectures may fuse
// multiply-adds and legitimately differ). A mismatch is a failed
// operation: the schedule or a solver's arithmetic changed.
var pinnedIterations = map[string]int{
	"stencil-gmres":   2069,
	"fem-cg":          360,
	"direct-refactor": 0,
	"service-mixed":   16052,
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is printed on the line before the result: the environment
// header, the sizes actually used and what the numbers rest on.
type runInfo struct {
	Env            environment    `json:"env"`
	Workload       workloadInfo   `json:"workload"`
	Seed           int64          `json:"seed"`
	Trace          bool           `json:"trace"`
	Epochs         int            `json:"measured_epochs"`
	SamplesPerStat map[string]int `json:"samples"`
	// EpochMedians are the per-epoch medians behind each reported value,
	// in epoch order: the place to look when two runs disagree.
	EpochMedians  map[string][]float64 `json:"epoch_medians,omitempty"`
	IterationsSum int                  `json:"iterations_per_epoch"`
	Failures      []string             `json:"failures,omitempty"`
	Notes         []string             `json:"notes,omitempty"`
}

func newWorkload(name string, seed int64, quick bool) (workload, error) {
	switch name {
	case "stencil-gmres":
		return newStencilGMRES(seed, quick), nil
	case "fem-cg":
		return newFEMCG(seed, quick), nil
	case "direct-refactor":
		return newDirectRefactor(seed, quick), nil
	case "service-mixed":
		return newServiceMixed(seed, quick), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := make([]string, len(workloadWhy))
	for i, w := range workloadWhy {
		names[i] = w.Name
	}
	return names
}

// epochsFor turns the -seconds budget into a fixed, odd number of
// measured epochs (one warm-up epoch comes out of the budget too). The
// count depends on the budget only, never on how fast this build runs,
// so a parent commit and a change always do identical work.
func epochsFor(seconds, epochSeconds float64) int {
	n := int(seconds/epochSeconds) - 1
	if n < minEpochs {
		n = minEpochs
	}
	if n%2 == 0 {
		n--
	}
	return n
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runConfig) (result, runInfo, error) {
	env := readEnvironment()
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.quick)
	if err != nil {
		return result{}, runInfo{}, err
	}
	wi := w.info()
	if err := guardParallelism(wi.Ranks, wi.Workers); err != nil {
		return result{}, runInfo{}, fmt.Errorf("%s: %w", wi.Name, err)
	}
	info := runInfo{Workload: wi, Seed: cfg.seed, Trace: cfg.trace, SamplesPerStat: map[string]int{}}
	ck := newChecker()
	var values map[string]float64
	if cfg.trace {
		values, err = tracedPass(cfg, w, ck, &info)
	} else {
		values, err = endToEndPass(cfg, w, ck, &info)
	}
	if err != nil {
		return result{}, runInfo{}, err
	}
	if want, ok := pinnedIterations[wi.Name]; ok && !cfg.quick && cfg.seed == defaultSeed && runtime.GOARCH == "amd64" && info.IterationsSum != want {
		ck.fail("pin/iterations", fmt.Errorf("epoch iteration total %d, pinned %d for seed %d", info.IterationsSum, want, defaultSeed))
	}
	env.finish()
	info.Env = env
	info.Failures = ck.messages

	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			info.Notes = append(info.Notes, "no sample for "+s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return res, info, nil
}

// endToEndPass is the measured pass: tracing off, nil recorder, one
// discarded warm-up epoch, then the measured epochs. Every epoch reduces
// its samples to a median; a timing metric reports the best epoch, a
// ratio or memory metric the median epoch.
func endToEndPass(cfg runConfig, w workload, ck *checker, info *runInfo) (map[string]float64, error) {
	epochs := 1
	if !cfg.quick {
		epochs = epochsFor(cfg.seconds, w.info().EpochSeconds)
		if _, err := w.epoch(epochCtx{e: 0, ck: ck}); err != nil { // warm-up: pins iterations and digests
			return nil, err
		}
	}
	info.Epochs = epochs
	perMetric := map[string][][]float64{}
	for e := 1; e <= epochs; e++ {
		perEpochRSS := resetPeakRSS()
		samples, err := w.epoch(epochCtx{e: e, ck: ck})
		if err != nil {
			return nil, err
		}
		if perEpochRSS {
			rss, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			samples.add("peak_rss_mb", rss)
		}
		for name, xs := range samples {
			perMetric[name] = append(perMetric[name], xs)
			info.SamplesPerStat[name] += len(xs)
		}
	}
	info.IterationsSum = ck.iterTotal
	values := map[string]float64{}
	info.EpochMedians = map[string][]float64{}
	for _, spec := range endToEnd {
		eps, ok := perMetric[spec.Name]
		if !ok {
			continue
		}
		if spec.isTiming() {
			values[spec.Name] = bestOfEpochs(eps, spec.Better == "higher")
		} else {
			values[spec.Name] = medianOfEpochs(eps)
		}
		info.EpochMedians[spec.Name] = epochMedians(eps)
	}
	if _, ok := values["peak_rss_mb"]; !ok {
		// No per-epoch marks on this kernel: the whole-process mark.
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		values["peak_rss_mb"] = rss
		info.Notes = append(info.Notes, "peak_rss_mb is the whole-process VmHWM: /proc/self/clear_refs is not writable")
	}
	return values, nil
}

// tracedPass produces the per-layer metrics: tracedEpochs epochs under
// the span recorder interleaved with as many untraced ones (their ratio
// is the tracing overhead), then the layer probes on the workload's own
// operator, then — for the library workloads — one epoch of the service
// mix so the service layer has numbers in every trace.
func tracedPass(cfg runConfig, w workload, ck *checker, info *runInfo) (map[string]float64, error) {
	tr := newTracer()
	if !cfg.quick {
		if _, err := w.epoch(epochCtx{e: 0, ck: ck}); err != nil {
			return nil, err
		}
	}
	n := tracedEpochs
	if cfg.quick {
		n = 1
	}
	info.Epochs = n
	traced := map[string][][]float64{}
	var plainWarm [][]float64
	for i := 0; i < n; i++ {
		var err error
		runAB(i,
			func() {
				samples, eerr := w.epoch(epochCtx{e: 2*i + 1, ck: ck, tr: tr})
				if eerr != nil {
					err = eerr
					return
				}
				if nat, ok := samples["native_warm_s"]; ok && len(samples["warm_solve_ms"]) > 0 {
					samples.add("core.port_overhead_us", median(samples["warm_solve_ms"])*1e3-nat[0]*1e6)
				}
				for name, xs := range samples {
					traced[name] = append(traced[name], xs)
				}
			},
			func() {
				samples, eerr := w.epoch(epochCtx{e: 2*i + 2, ck: ck, allocs: true})
				if eerr != nil {
					err = eerr
					return
				}
				plainWarm = append(plainWarm, samples["warm_solve_ms"])
				if a, ok := samples["core.warm_allocs_per_solve"]; ok {
					traced["core.warm_allocs_per_solve"] = append(traced["core.warm_allocs_per_solve"], a)
				}
			})
		if err != nil {
			return nil, err
		}
	}
	info.IterationsSum = ck.iterTotal // before the service epoch below adds its own
	values := map[string]float64{}
	for name, eps := range traced {
		values[name] = medianOfEpochs(eps)
		info.SamplesPerStat[name] = len(eps)
	}
	if plain := medianOfEpochs(plainWarm); plain > 0 {
		values["telemetry.trace_overhead_ratio"] = medianOfEpochs(traced["warm_solve_ms"]) / plain
	}
	for name, span := range map[string]string{
		"core.session_open_ms": "core.OpenSession",
		"core.stage_matrix_ms": "core.Session.Setup",
		"core.first_solve_ms":  "core.Session.Solve/first",
	} {
		values[name] = median(tr.seconds(span)) * 1e3
	}
	values["core.stage_rhs_us"] = median(tr.seconds("core.Session.SetupRHS")) * 1e6

	probes := tr.begin("probes", noSpan, 0, 0)
	layer, err := layerProbes(w.probe(), tr, probes)
	tr.end(probes)
	if err != nil {
		return nil, err
	}
	for name, v := range layer {
		values[name] = v
	}

	if _, own := values["service.request_ms"]; !own {
		svc := newServiceMixed(cfg.seed, cfg.quick)
		samples, err := svc.epoch(epochCtx{e: 0, ck: ck, tr: tr})
		if err != nil {
			return nil, err
		}
		for name, xs := range samples {
			if strings.HasPrefix(name, "service.") {
				values[name] = median(xs)
			}
		}
	}

	path := filepath.Join(cfg.outDir, "trace-"+w.info().Name+".json")
	if err := tr.write(path, w.info().Name, cfg.seed); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	info.Notes = append(info.Notes, "spans written to "+path)
	return values, nil
}

// printRun writes the human-readable table, the info line and — last —
// the result line the driver parses.
func printRun(out io.Writer, res result, info runInfo) error {
	specs := endToEnd
	if info.Trace {
		specs = perLayer
	}
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload %s\tseed %d\tepochs %d\tattempted %d\tfailed %d\n", info.Workload.Name, info.Seed, info.Epochs, res.Attempted, res.Failed)
	for _, s := range specs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t(%s is better)\n", s.Name, res.Metrics[s.Name].Value, s.Unit, s.Better)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, f := range info.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	if info.Env.NoisyHost {
		fmt.Fprintf(out, "  WARNING noisy host: load average %.2f at start on %d processors\n", info.Env.LoadStart, info.Env.NProc)
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]runInfo{"info": info}); err != nil {
		return err
	}
	return enc.Encode(res)
}

func main() {
	var cfg runConfig
	var trace, aa int
	flag.StringVar(&cfg.workload, "workload", "", "run this workload in-process (default: every workload, one child process each)")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of every generated input: FEM jitter, right-hand sides, refresh values, request schedule")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "measurement budget; sets the fixed number of measured epochs")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass (per-layer metrics, span files) instead of the end-to-end pass")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny sizes, one epoch: a smoke run, not a measurement")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files")
	flag.IntVar(&aa, "aa", 0, "A/A self-check: two interleaved sets of this many runs per workload, compared against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-quick] [-aa n]")
		os.Exit(2)
	}
	cfg.trace = trace == 1

	switch {
	case aa > 0:
		os.Exit(selfCheck(cfg, aa))
	case cfg.workload == "":
		os.Exit(runAll(cfg))
	}
	res, info, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := printRun(os.Stdout, res, info); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1) // every metric is printed first; a wrong answer still fails the run
	}
}
