package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sparse"
)

func TestEpochEstimatorsAreHierarchical(t *testing.T) {
	// One epoch with many slow samples must not outvote the others: the
	// pooled median of these 9 samples is 9, the median of epoch medians 2.
	epochs := [][]float64{{1}, {2}, {9, 9, 9, 9, 9, 9, 9}}
	if got := medianOfEpochs(epochs); got != 2 {
		t.Errorf("medianOfEpochs = %v, want 2", got)
	}
	if got := medianOfEpochs([][]float64{{1, 2, 100}, {3, 3, 3}, {}, {5, 6, 7}}); got != 3 {
		t.Errorf("medianOfEpochs with an empty epoch = %v, want 3 (empty epochs carry no vote)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	// Timing metrics take the least disturbed epoch, in the direction
	// that is better; a freak sample inside an epoch cannot win it.
	timing := [][]float64{{10, 11, 12}, {4, 30, 31}, {}, {9, 9, 40}}
	if got := bestOfEpochs(timing, false); got != 9 {
		t.Errorf("bestOfEpochs(lower is better) = %v, want 9", got)
	}
	if got := bestOfEpochs(timing, true); got != 30 {
		t.Errorf("bestOfEpochs(higher is better) = %v, want 30", got)
	}
	if got := bestOfEpochs(nil, false); got != 0 {
		t.Errorf("bestOfEpochs of nothing = %v, want 0", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its argument: %v", xs)
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestHighPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, maxPct, wantPct int
		wantV              float64
	}{
		{200, 95, 95, 190},  // exactly ten samples beyond p95
		{199, 95, 90, 180},  // nine beyond p95: fall back to p90
		{1000, 95, 95, 950}, // p99 would qualify but is above the cap
		{1000, 99, 99, 990},
		{40, 95, 75, 30},
		{20, 95, 50, 10},
		{19, 95, 0, 19}, // nothing qualifies: the maximum, flagged by pct 0
	} {
		pct, v := highPercentile(ramp(tc.n), tc.maxPct)
		if pct != tc.wantPct || v != tc.wantV {
			t.Errorf("highPercentile(1..%d, max %d) = p%d %v, want p%d %v", tc.n, tc.maxPct, pct, v, tc.wantPct, tc.wantV)
		}
	}
}

func TestABOrderAlternatesByEpoch(t *testing.T) {
	var order []byte
	for e := 0; e < 6; e++ {
		runAB(e, func() { order = append(order, 'A') }, func() { order = append(order, 'B') })
	}
	if got, want := string(order), "ABBAABBAABBA"; got != want {
		t.Errorf("A/B order over six epochs = %s, want %s", got, want)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread(ramp(10)); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13, 20], n=4) == [10.5, 12.0, 16.5]
	if got := quartileSpread([]float64{20, 10, 12, 11, 13}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("quartileSpread = %v, want (16.5-10.5)/12 = 0.5", got)
	}
}

func TestEpochsForIsFixedOddAndAtLeastSeven(t *testing.T) {
	for _, tc := range []struct {
		seconds, epoch float64
		want           int
	}{{20, 1.55, 11}, {20, 1.0, 19}, {20, 1.1, 17}, {1, 1.5, 7}, {60, 1.6, 35}} {
		if got := epochsFor(tc.seconds, tc.epoch); got != tc.want {
			t.Errorf("epochsFor(%v, %v) = %d, want %d", tc.seconds, tc.epoch, got, tc.want)
		}
	}
}

// scheduleBytes is everything a seed decides for a workload: the
// operation list of every client.
func scheduleBytes(t *testing.T, name string, seed int64) ([]byte, map[opKind]int) {
	t.Helper()
	w, err := newWorkload(name, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	var scheds []schedule
	switch w := w.(type) {
	case *sessionWorkload:
		scheds = []schedule{w.sched}
	case *serviceWorkload:
		scheds = w.scheds
	}
	var b bytes.Buffer
	counts := map[opKind]int{}
	for _, s := range scheds {
		b.Write(s.bytes())
		b.WriteByte('\n')
		for _, k := range []opKind{opWarm, opRefresh, opKSP, opMulti, opBumpCSR, opBumpMM} {
			counts[k] += s.count(k)
		}
	}
	return b.Bytes(), counts
}

func TestSameSeedSameScheduleDifferentSeedDifferentSchedule(t *testing.T) {
	for _, name := range workloadNames() {
		a, countsA := scheduleBytes(t, name, 11)
		b, countsB := scheduleBytes(t, name, 11)
		c, countsC := scheduleBytes(t, name, 12)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two schedules from seed 11 differ", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 11 and 12 gave the same schedule", name)
		}
		if !reflect.DeepEqual(countsA, countsB) || !reflect.DeepEqual(countsA, countsC) {
			t.Errorf("%s: operation counts depend on the seed: %v %v %v", name, countsA, countsB, countsC)
		}
	}
}

func TestServiceScheduleHasTheStatedMix(t *testing.T) {
	s := serviceSchedule(newRNG(3, "mix"), 300, 1024, 576)
	got := []int{s.count(opWarm), s.count(opKSP), s.count(opMulti), s.count(opBumpCSR, opBumpMM)}
	if want := []int{210, 60, 24, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("mix of 300 requests = %v, want %v (70/20/8/2 %%)", got, want)
	}
	if c, x := s.count(opBumpCSR), s.count(opBumpMM); c != x {
		t.Errorf("version bumps do not alternate body kinds: %d matrix, %d matrix_market", c, x)
	}
	version := 1
	for i, o := range s {
		if o.Kind == opBumpCSR || o.Kind == opBumpMM {
			version++
		}
		if o.Kind != opKSP && o.Version != version {
			t.Fatalf("request %d targets version %d, want %d", i, o.Version, version)
		}
	}
}

func TestPerturbValuesIsPartitionInvariantAndSymmetric(t *testing.T) {
	a := sparse.Laplace2D(6, 5)
	whole := perturbValues(a, 0, 9, 3)
	if reflect.DeepEqual(whole, a.Vals) {
		t.Fatal("version 3 left the values unchanged")
	}
	if !reflect.DeepEqual(perturbValues(a, 0, 9, 1), a.Vals) {
		t.Error("version 1 is not the operator itself")
	}
	lo, hi := 7, 19
	block := a.SubMatrix(lo, hi)
	part := perturbValues(block, lo, 9, 3)
	if want := whole[a.RowPtr[lo]:a.RowPtr[hi]]; !reflect.DeepEqual(part, want) {
		t.Error("a rank's block is perturbed differently from the same rows of the global operator")
	}
	p := withValues(a, whole)
	at := func(i, j int) float64 {
		cols, vals := p.RowView(i)
		for k, c := range cols {
			if c == j {
				return vals[k]
			}
		}
		return 0
	}
	for i := 0; i < a.Rows; i++ {
		cols, _ := p.RowView(i)
		for _, j := range cols {
			if at(i, j) != at(j, i) {
				t.Fatalf("perturbed operator lost symmetry at (%d,%d)", i, j)
			}
		}
	}
}

func TestCheckerCountsEveryKindOfFailure(t *testing.T) {
	a := sparse.Identity(3)
	b := []float64{1, 2, 3}
	good := outcome{iters: 5, converged: true}
	ck := newChecker()
	if !ck.check("op", a, b, []float64{1, 2, 3}, 1e-8, good) {
		t.Fatal("exact solution rejected")
	}
	if !ck.check("op", a, b, []float64{1, 2, 3}, 1e-8, good) {
		t.Error("identical repeat of a pinned operation rejected")
	}
	for name, tc := range map[string]struct {
		x   []float64
		out outcome
	}{
		"wrong answer":       {[]float64{1, 2, 4}, good},
		"not converged":      {[]float64{1, 2, 3}, outcome{iters: 5}},
		"error":              {[]float64{1, 2, 3}, outcome{iters: 5, converged: true, err: errors.New("boom")}},
		"iteration count":    {[]float64{1, 2, 3}, outcome{iters: 6, converged: true}},
		"different bits":     {[]float64{1, 2, math.Nextafter(3, 4)}, good},
		"non-finite residue": {[]float64{1, 2, math.NaN()}, good},
	} {
		if ck.check("op", a, b, tc.x, 1e-8, tc.out) {
			t.Errorf("%s: accepted", name)
		}
	}
	if !ck.check("op", a, b, []float64{1, 2, 3}, 1e-8, outcome{iters: 99, converged: true, noIterPin: true}) {
		t.Error("merged-batch reply must skip the iteration pin")
	}
	if ck.attempted != 9 || ck.failed != 6 {
		t.Errorf("attempted/failed = %d/%d, want 9/6", ck.attempted, ck.failed)
	}
	if ck.iterTotal != 5 {
		t.Errorf("pinned iteration total = %d, want 5 (first sight only)", ck.iterTotal)
	}

	// A merged reply seen first must not pin the merged run's count.
	merged := outcome{iters: 360, converged: true, noIterPin: true}
	own := outcome{iters: 180, converged: true}
	if !ck.check("ksp", a, b, []float64{1, 2, 3}, 1e-8, merged) || !ck.check("ksp", a, b, []float64{1, 2, 3}, 1e-8, own) {
		t.Error("an unmerged reply after a merged first sight was rejected")
	}
	if ck.check("ksp", a, b, []float64{1, 2, 3}, 1e-8, outcome{iters: 181, converged: true}) {
		t.Error("iteration pin was never set after a merged first sight")
	}
}

func TestTracerSelfTimeExcludesChildren(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{ID: 0, Parent: noSpan, Name: "epoch", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "solve", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "solve", StartNS: 50, EndNS: 90},
		{ID: 3, Parent: 2, Name: "spmv", StartNS: 60, EndNS: 70},
	}
	self := tr.selfSeconds()
	for name, want := range map[string]float64{"epoch": 30e-9, "solve": 60e-9, "spmv": 10e-9} {
		if math.Abs(self[name]-want) > 1e-15 {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	var none *tracer
	id := none.begin("x", noSpan, 0, 0)
	none.end(id)
	if id != noSpan || none.seconds("x") != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestGuardRefusesOversubscription(t *testing.T) {
	if err := guardParallelism(1, 1); err != nil {
		t.Errorf("1 rank × 1 worker refused: %v", err)
	}
	if err := guardParallelism(1024, 2); err == nil {
		t.Error("2048 runnable goroutines accepted")
	}
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

func TestContractMatchesTheTables(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloadWhy) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloadWhy))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadWhy[i].Name || w.Why != workloadWhy[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, program has %q / %q", i, w.Name, w.Why, workloadWhy[i].Name, workloadWhy[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		if got := (metricSpec{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v outside (0, 0.25] or wider than setup_s's", m.Name, m.Bound)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		if got := (metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, got, perLayer[i])
		}
	}
}

// TestQuickSmoke runs every workload in both passes at tiny sizes and
// checks that the emitted names are exactly BENCHMARK.json's and that
// every solve verified.
func TestQuickSmoke(t *testing.T) {
	c := readContract(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		layers[m.Name] = m.Unit
	}
	out := t.TempDir()
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			res, info, err := runWorkload(runConfig{workload: w.Name, seed: defaultSeed, seconds: 1, trace: trace, quick: true, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d failed %d: %v", w.Name, trace, res.Attempted, res.Failed, info.Failures)
			}
			want := e2e
			if trace {
				want = layers
			}
			got := map[string]string{}
			for name, v := range res.Metrics {
				got[name] = v.Unit
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, name, v.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted metrics differ from BENCHMARK.json\n got %v\nwant %v", w.Name, trace, got, want)
			}
			if len(info.Notes) > 0 && !trace {
				t.Errorf("%s: %v", w.Name, info.Notes)
			}
			var buf bytes.Buffer
			if err := printRun(&buf, res, info); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var last map[string]json.RawMessage
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Fatalf("last output line is not JSON: %v", err)
			}
			if keys := sortedKeys(last); !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("last line has keys %v", keys)
			}
		}
		if _, err := os.Stat(out + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: traced pass wrote no span file: %v", w.Name, err)
		}
	}
}

// bytes is the canonical encoding the determinism test compares.
func (s schedule) bytes() []byte {
	var b bytes.Buffer
	for _, o := range s {
		fmt.Fprintf(&b, "%c %d %.17g %d\n", o.Kind, o.Shift, o.Scale, o.Version)
	}
	return b.Bytes()
}

func (s schedule) count(kinds ...opKind) int {
	n := 0
	for _, o := range s {
		for _, k := range kinds {
			if o.Kind == k {
				n++
			}
		}
	}
	return n
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
