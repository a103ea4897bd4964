// lisi-bench regenerates the CCA-LISI paper's evaluation artifacts:
//
//	lisi-bench -experiment table1          # Table 1 (PETSc-role, 8 procs, 5 sizes)
//	lisi-bench -experiment fig5            # Figure 5 (3 solvers, P = 1,2,4,8)
//	lisi-bench -experiment all             # both
//	lisi-bench -experiment table1 -quick   # reduced sizes for a fast smoke run
//	lisi-bench -telemetry out.json         # instrumented CCA-vs-NonCCA attribution
//	lisi-bench -experiment all -timeout 2m # bound the whole campaign
//	lisi-bench -sweep -corpus testdata/corpus -sweep-out report.json
//
// -sweep runs the workload-corpus accuracy/efficiency sweep instead of
// the paper experiments: {backend × preconditioner × problem family}
// with true-residual accuracy columns. The complete table is
// always printed and the JSON/Markdown reports always written; if any
// cell failed to converge the process then exits with the distinct
// status 3 — a typed failure, never a silently partial table.
//
// The -runs flag controls how many repetitions are averaged (the paper
// used 10). With -telemetry, instrumented solves run for every backend
// on both paths and the per-phase reports (plus comm counters and
// residual traces) are written to the given JSON file; unless
// -experiment is also given explicitly, only the telemetry collection
// runs.
//
// -timeout bounds the whole campaign; on expiry (exit status 124) or
// SIGINT (exit status 130) the world of every in-flight measurement is
// aborted, so its ranks unblock, and the partial results collected so
// far are printed before exiting with the distinct status.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/telemetry"
)

// Distinct exit statuses for cancelled campaigns, following the shell
// conventions (timeout(1) exits 124; 128+SIGINT = 130).
const (
	exitTimeout   = 124
	exitInterrupt = 130
	// exitSweepFailed: the sweep completed and the full report was
	// emitted, but at least one cell failed to converge.
	exitSweepFailed = 3
)

func main() {
	// SIGINT cancels the campaign context; the harness returns whatever it
	// completed so far plus the cancellation cause.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command under ctx: it parses args, runs the chosen
// campaign, writes tables to stdout and diagnostics to stderr, and
// returns the exit status: 0 done, 1 failed, 2 bad flags, 3 a sweep cell
// that did not converge, 124/130 a cancelled campaign. It leaves the
// bench package's aggregation and fault-injection settings as it found
// them.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lisi-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "which experiment to run: table1, fig5, or all")
	runs := fs.Int("runs", 3, "repetitions per measurement (mean is reported; the paper used 10)")
	procs := fs.Int("procs", 8, "processor count for Table 1")
	quick := fs.Bool("quick", false, "use reduced problem sizes for a fast smoke run")
	grid := fs.Int("grid", 0, "override Figure 5 grid size n (0 = paper's n=200, nnz=199200)")
	stat := fs.String("stat", "median", "aggregate repeated runs with \"median\" (robust) or \"mean\" (as the paper)")
	timeout := fs.Duration("timeout", 0, "overall campaign deadline (0 = none); expiry exits with status 124")
	workers := fs.Int("workers", 1, "intra-rank worker-pool size for the CCA measurements (results are bitwise-identical for any count)")
	telemetryOut := fs.String("telemetry", "", "write instrumented per-phase solve reports to this JSON file")
	faultSpec := fs.String("fault-spec", "",
		"arm this deterministic fault-injection schedule on every measurement world "+
			"(measures resilience overhead; timings are NOT comparable to fault-free runs)")
	sweep := fs.Bool("sweep", false, "run the workload-corpus accuracy/efficiency sweep instead of the paper experiments")
	corpus := fs.String("corpus", "testdata/corpus", "corpus directory of .mtx files for -sweep")
	sweepOut := fs.String("sweep-out", "", "write the sweep JSON report here")
	sweepMD := fs.String("sweep-md", "", "write the sweep Markdown report here")
	sweepTol := fs.Float64("sweep-tol", 1e-8, "convergence tolerance for every sweep cell")
	sweepMaxIts := fs.Int("sweep-maxits", 2000, "iteration cap for every sweep cell")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	experimentSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "experiment" {
			experimentSet = true
		}
	})

	defer func(median bool) { bench.UseMedian = median }(bench.UseMedian)
	switch *stat {
	case "median":
		bench.UseMedian = true
	case "mean":
		bench.UseMedian = false
	default:
		fmt.Fprintf(stderr, "unknown stat %q (want mean or median)\n", *stat)
		return 2
	}

	switch *experiment {
	case "table1", "fig5", "all":
	default:
		fmt.Fprintf(stderr, "unknown experiment %q (want table1, fig5, or all)\n", *experiment)
		return 2
	}

	if *faultSpec != "" {
		spec, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		bench.SetFaultInjector(func(size int) comm.FaultHook { return fault.New(spec, size) })
		defer bench.SetFaultInjector(nil)
		fmt.Fprintf(stderr, "fault injection armed on every measurement world: %s\n", spec)
	}

	params := bench.DefaultParams()
	if *workers > 1 {
		// workers=1 is the serial default; only a parallel pool needs the
		// parameter (the CCA side sets it per backend, the native side has
		// no intra-rank pool — another port-vocabulary difference).
		params["workers"] = strconv.Itoa(*workers)
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *sweep {
		return runSweep(ctx, stdout, stderr, *corpus, *procs, *workers, *sweepTol, *sweepMaxIts, *sweepOut, *sweepMD)
	}

	if *telemetryOut != "" {
		n := 60
		if *grid > 0 {
			n = *grid
		}
		telRuns := *runs
		telProcs := 4
		if *procs != 8 { // non-default: the user chose a count
			telProcs = *procs
		}
		fmt.Fprintf(stdout, "== Telemetry: instrumented CCA vs NonCCA, grid %dx%d, %d procs, best of %d run(s) ==\n",
			n, n, telProcs, telRuns)
		agg := telemetry.NewAggregator()
		atts, err := bench.CollectAttribution(ctx, agg, telProcs, n, telRuns, params)
		if err != nil && !cancelled(err) {
			fmt.Fprintf(stderr, "telemetry: %v\n", err)
			return 1
		}
		if len(atts) > 0 {
			fmt.Fprintln(stdout, bench.FormatAttribution(atts))
		}
		if agg.Len() > 0 {
			if err := writeFile(*telemetryOut, agg.Emit); err != nil {
				fmt.Fprintf(stderr, "telemetry: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "telemetry reports written to %s\n", *telemetryOut)
		}
		if err != nil {
			return exitCancelled(stderr, err, len(atts))
		}
		if !experimentSet {
			return 0
		}
	}

	if *experiment == "table1" || *experiment == "all" {
		nnzs := bench.PaperNNZs()
		if *quick {
			nnzs = []int{12300, 49600}
		}
		fmt.Fprintf(stdout, "== Table 1: PETSc-role component, %d processors, %d run(s) averaged ==\n", *procs, *runs)
		rows, err := bench.Table1(ctx, nnzs, *procs, *runs, params)
		if err != nil && !cancelled(err) {
			fmt.Fprintf(stderr, "table1: %v\n", err)
			return 1
		}
		bench.SortRows(rows)
		fmt.Fprintln(stdout, bench.FormatTable1(rows))
		if err != nil {
			return exitCancelled(stderr, err, len(rows))
		}
	}

	if *experiment == "fig5" || *experiment == "all" {
		n := 200 // nnz = 199200, the paper's Figure 5 problem
		if *grid > 0 {
			n = *grid
		}
		if *quick {
			n = 60
		}
		p := mesh.PaperProblem(n)
		fmt.Fprintf(stdout, "== Figure 5: grid %dx%d (nnz=%d), %d run(s) averaged ==\n", n, n, p.NNZ(), *runs)
		for _, s := range bench.Solvers() {
			pts, err := bench.Figure5(ctx, s, n, bench.PaperProcs(), *runs, params)
			if err != nil && !cancelled(err) {
				fmt.Fprintf(stderr, "figure5 %s: %v\n", s, err)
				return 1
			}
			fmt.Fprintln(stdout, bench.FormatFigure5(s, pts))
			if err != nil {
				return exitCancelled(stderr, err, len(pts))
			}
		}
	}
	return 0
}

// runSweep executes the workload-corpus sweep and returns the exit
// status: 0 when every cell converged, 3 when any cell failed (after the
// complete table and reports are out), 124/130 on cancellation.
func runSweep(ctx context.Context, stdout, stderr io.Writer, corpusDir string, procs, workers int, tol float64, maxIts int, outJSON, outMD string) int {
	families, err := bench.CorpusFamilies(corpusDir)
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 1
	}
	cfg := bench.DefaultSweepConfig()
	cfg.Tol = tol
	cfg.MaxIts = maxIts
	if procs != 8 { // non-default: the user chose a count
		cfg.Procs = procs
	}
	cfg.Workers = workers
	fmt.Fprintf(stdout, "== Workload sweep: %d families, procs=%d, workers=%d, tol=%g, maxits=%d ==\n",
		len(families), cfg.Procs, cfg.Workers, cfg.Tol, cfg.MaxIts)
	report, runErr := bench.RunSweep(ctx, families, cfg)

	// The table and reports are emitted unconditionally — a failing
	// sweep must never truncate its own evidence.
	fmt.Fprintln(stdout, bench.FormatSweepMarkdown(report))
	if outJSON != "" {
		if err := writeFile(outJSON, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(report)
		}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "sweep JSON report written to %s\n", outJSON)
	}
	if outMD != "" {
		if err := writeFile(outMD, func(w io.Writer) error {
			_, err := io.WriteString(w, bench.FormatSweepMarkdown(report))
			return err
		}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "sweep Markdown report written to %s\n", outMD)
	}
	if runErr != nil {
		if cancelled(runErr) {
			return exitCancelled(stderr, runErr, len(report.Cells))
		}
		fmt.Fprintf(stderr, "sweep: %v\n", runErr)
		return 1
	}
	if failed := report.Failed(); len(failed) > 0 {
		fmt.Fprintf(stderr, "sweep: %d of %d cell(s) failed to converge: %s\n",
			len(failed), len(report.Cells), strings.Join(failed, ", "))
		return exitSweepFailed
	}
	return 0
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func cancelled(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// exitCancelled reports a deadline/interrupt after the partial results
// already printed, and returns the distinct status.
func exitCancelled(stderr io.Writer, err error, partial int) int {
	var status int
	var reason string
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status, reason = exitTimeout, "deadline exceeded"
	case errors.Is(err, context.Canceled):
		status, reason = exitInterrupt, "interrupted"
	default:
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "benchmark aborted: %s (%d partial result(s) printed above)\n", reason, partial)
	return status
}
