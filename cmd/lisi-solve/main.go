// lisi-solve solves a sparse linear system read from files through a
// LISI solver component — the adoption path for systems that did not
// come from this repository's mesh generator.
//
//	lisi-solve -matrix A.mtx -rhs b.vec -solver petsc -set tol=1e-10 -set preconditioner=ilu
//	lisi-solve -matrix A.mtx -solver superlu -procs 4 -out x.vec
//	lisi-solve -matrix A.mtx -solver trilinos -timeout 30s
//
// The matrix is a Matrix Market file (coordinate or array format,
// real/integer field, general or symmetric storage — symmetric files
// are expanded to the full operator), which is also what cmd/meshgen
// writes; the right-hand side defaults to all ones when -rhs is
// omitted. The
// global system is block-row partitioned over -procs simulated ranks
// and pushed through the SparseSolver port.
//
// The solver backend is resolved by name from the core registry — any
// registered backend works with no code change here. -timeout bounds
// the solve; on expiry (exit status 124) or SIGINT (exit status 130)
// every rank unblocks, the partial telemetry collected so far is
// printed, and the process exits with the distinct status.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// Distinct exit statuses for cancelled solves, following the shell
// conventions (timeout(1) exits 124; 128+SIGINT = 130).
const (
	exitTimeout   = 124
	exitInjected  = 125 // solve killed by a -fault-spec injected crash
	exitInterrupt = 130
)

// setFlags collects repeated -set key=value flags.
type setFlags map[string]string

func (s setFlags) String() string { return fmt.Sprint(map[string]string(s)) }

func (s setFlags) Set(v string) error {
	k, val, ok := strings.Cut(v, "=")
	if !ok || k == "" {
		return fmt.Errorf("-set wants key=value, got %q", v)
	}
	s[k] = val
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, solves, writes the summary
// to stdout and diagnostics to stderr, and returns the exit status: 0
// solved, 1 failed, 2 bad flags, 124/125/130 a cancelled solve.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lisi-solve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	matrixPath := fs.String("matrix", "", "coefficient matrix file (Matrix Market, required)")
	rhsPath := fs.String("rhs", "", "right-hand side file (defaults to all ones)")
	outPath := fs.String("out", "", "write the solution vector here (defaults to stdout summary only)")
	solver := fs.String("solver", "petsc",
		fmt.Sprintf("solver backend: one of %s", strings.Join(core.Names(), ", ")))
	procs := fs.Int("procs", 2, "simulated processor count")
	workers := fs.Int("workers", 1, "intra-rank worker-pool size for the backend's kernels (results are bitwise-identical for any count)")
	timeout := fs.Duration("timeout", 0, "per-solve deadline (0 = none); expiry exits with status 124")
	params := setFlags{}
	fs.Var(params, "set", "LISI parameter key=value (repeatable)")
	telemetryOut := fs.String("telemetry", "", "write the instrumented solve report to this JSON file")
	expvarAddr := fs.String("expvar", "", "serve telemetry at this address under /debug/vars until interrupted (e.g. :8080)")
	faultSpec := fs.String("fault-spec", "",
		"deterministic fault-injection schedule (e.g. from a chaos test log: seed=42,pdelay=0.05,maxdelay=500µs,...)")
	failover := fs.String("failover", "", "comma-separated backends to fail over to on a method-specific failure")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lisi-solve:", err)
		return 1
	}

	if *matrixPath == "" {
		fmt.Fprintln(stderr, "-matrix is required")
		return 2
	}
	if _, ok := core.Lookup(*solver); !ok {
		fmt.Fprintf(stderr, "unknown solver %q (registered: %s)\n",
			*solver, strings.Join(core.Names(), ", "))
		return 2
	}

	mf, err := os.Open(*matrixPath)
	if err != nil {
		return fail(err)
	}
	a, err := sparse.ReadMatrixMarket(mf)
	mf.Close()
	if err != nil {
		return fail(err)
	}
	if a.Rows != a.Cols {
		return fail(fmt.Errorf("matrix is %dx%d; LISI systems are square", a.Rows, a.Cols))
	}
	n := a.Rows

	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	if *rhsPath != "" {
		vf, err := os.Open(*rhsPath)
		if err != nil {
			return fail(err)
		}
		b, err = sparse.ReadVector(vf)
		vf.Close()
		if err != nil {
			return fail(err)
		}
		if len(b) != n {
			return fail(fmt.Errorf("rhs has %d entries for a %dx%d matrix", len(b), n, n))
		}
	}

	world, err := comm.NewWorld(*procs)
	if err != nil {
		return fail(err)
	}
	var injector *fault.Injector
	if *faultSpec != "" {
		spec, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			return fail(err)
		}
		injector = fault.New(spec, *procs)
		world.SetFaultHook(injector)
		fmt.Fprintf(stderr, "fault injection armed: %s\n", spec)
	}
	var failoverChain []string
	if *failover != "" {
		failoverChain = strings.Split(*failover, ",")
	}

	// SIGINT cancels the session context; RunContext's watcher then
	// aborts the world, so every blocked rank unblocks.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// A rank that cannot go on poisons the world with its error: every
	// other rank unblocks, and RunContext returns the error (exit 1).
	var xGlobal []float64
	var result core.SolveResult
	var report *telemetry.SolveReport
	start := time.Now()
	runErr := world.RunContext(ctx, func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, n)
		if err != nil {
			world.AbortCause(err)
			return
		}
		localA := a.SubMatrix(l.Start, l.Start+l.LocalN)
		localB := b[l.Start : l.Start+l.LocalN]

		var rec *telemetry.Recorder
		if c.Rank() == 0 {
			rec = telemetry.New()
		}
		s, err := core.OpenSession(*solver, c, core.SessionOptions{
			Recorder:     rec,
			SolveTimeout: *timeout,
			Params:       params,
			Workers:      *workers,
			Failover:     failoverChain,
		})
		if err != nil {
			world.AbortCause(err)
			return
		}
		defer s.Close()
		if err := s.Setup(l, localA); err != nil {
			world.AbortCause(err)
			return
		}
		if err := s.SetupRHS(localB, 1); err != nil {
			world.AbortCause(err)
			return
		}
		x := make([]float64, l.LocalN)
		res, err := s.Solve(ctx, x)
		if c.Rank() == 0 {
			result = res
			report = rec.Report(*solver)
			report.Iterations = res.Iterations
			report.Converged = res.Converged
			report.GlobalRows = n
			report.NNZ = a.NNZ()
			report.Procs = *procs
			report.Path = "cca"
		}
		if res.Aborted {
			return // world is poisoned; no residual/gather possible
		}
		if err != nil {
			if res.FailReason == core.FailNone {
				world.AbortCause(err)
			}
			return // a typed failure: every rank has the same outcome
		}

		m, err := pmat.NewMat(l, localA)
		if err != nil {
			world.AbortCause(err)
			return
		}
		res2 := m.Residual(localB, x)
		full := pmat.Gather(l, 0, x)
		if c.Rank() == 0 {
			xGlobal = full
			result.Residual = res2
			report.FinalResidual = res2
		}
	})
	if report != nil {
		report.WallSeconds = time.Since(start).Seconds()
		st := world.Stats()
		report.Comm = &telemetry.CommStats{
			Sends:              st.Sends,
			Recvs:              st.Recvs,
			BytesSent:          st.BytesSent,
			BytesRecv:          st.BytesRecv,
			BarrierEntries:     st.BarrierEntries,
			BarrierWaitSeconds: st.BarrierWait.Seconds(),
			BarrierParks:       st.BarrierParks,
			RecvParks:          st.RecvParks,
			Collectives:        st.Collectives,
		}
	}

	if injector != nil {
		fmt.Fprintf(stderr, "fault injections performed: %s\n", injector.Counts())
	}
	if runErr != nil {
		return exitAborted(runErr, report, *telemetryOut, stderr)
	}

	backend := *solver
	if result.Backend != "" {
		backend = result.Backend
	}
	if result.FailReason != core.FailNone {
		fmt.Fprintf(stderr, "lisi-solve: solve failed: %s after %d iterations with %s (residual %.3e)\n",
			result.FailReason, result.Iterations, backend, result.Residual)
		if *telemetryOut != "" && report != nil {
			report.FinalResidual = result.Residual // a breakdown's NaN is written as null
			if err := writeReport(*telemetryOut, report, stderr); err != nil {
				fmt.Fprintln(stderr, "lisi-solve:", err)
			}
		}
		return 1
	}
	fmt.Fprintf(stdout, "solved %dx%d system (nnz=%d) with %s on %d ranks: iterations=%d residual=%.3e\n",
		n, n, a.NNZ(), backend, *procs, result.Iterations, result.Residual)
	if result.Attempts > 1 || (result.Backend != "" && result.Backend != *solver) {
		fmt.Fprintf(stdout, "resilience: %d attempts, final backend %s, fail reason %s\n",
			result.Attempts, backend, result.FailReason)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fail(err)
		}
		err = sparse.WriteVector(f, xGlobal)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "solution written to %s\n", *outPath)
	}

	if *telemetryOut != "" && report != nil {
		if err := writeReport(*telemetryOut, report, stderr); err != nil {
			return fail(err)
		}
	}

	if *expvarAddr != "" && report != nil {
		agg := telemetry.NewAggregator()
		agg.Record(report)
		telemetry.Publish("lisi", agg)
		ln, err := telemetry.ServeExpvar(*expvarAddr)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "telemetry served at http://%s/debug/vars (interrupt to stop)\n", ln.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		ln.Close()
	}
	return 0
}

// exitAborted reports a cancelled or failed Run region: cancellation
// prints the partial telemetry and returns the distinct status for a
// deadline (124), an interrupt (130) or an injected fault (125); any
// other error is a failure (1).
func exitAborted(runErr error, report *telemetry.SolveReport, telemetryOut string, stderr io.Writer) int {
	var status int
	var reason string
	switch {
	case errors.Is(runErr, comm.ErrInjectedFault):
		status, reason = exitInjected, runErr.Error()
	case errors.Is(runErr, context.DeadlineExceeded):
		status, reason = exitTimeout, "deadline exceeded"
	case errors.Is(runErr, context.Canceled):
		status, reason = exitInterrupt, "interrupted"
	default:
		fmt.Fprintln(stderr, "lisi-solve:", runErr)
		return 1
	}
	fmt.Fprintf(stderr, "solve aborted: %s\n", reason)
	if report != nil {
		fmt.Fprintf(stderr, "partial telemetry (%.3fs wall):\n", report.WallSeconds)
		keys := make([]string, 0, len(report.Phases))
		for p := range report.Phases {
			keys = append(keys, p)
		}
		sort.Strings(keys)
		for _, p := range keys {
			fmt.Fprintf(stderr, "  phase %-14s %.4fs\n", p, report.Phases[p])
		}
		for k, v := range report.Labels {
			fmt.Fprintf(stderr, "  label %s=%s\n", k, v)
		}
		if telemetryOut != "" {
			if err := writeReport(telemetryOut, report, stderr); err != nil {
				fmt.Fprintln(stderr, "lisi-solve:", err)
			}
		}
	}
	return status
}

func writeReport(path string, report *telemetry.SolveReport, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = telemetry.WriteJSON(f, report)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "telemetry report written to %s\n", path)
	return nil
}
