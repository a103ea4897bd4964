// Package bench is the experiment harness that regenerates the paper's
// evaluation artifacts: Figure 5 (CCA vs NonCCA execution time for the
// PETSc-role, Trilinos-role and SuperLU-role components over processor
// counts) and Table 1 (PETSc-role component on a fixed processor count
// over problem sizes, with overhead and iteration columns).
//
// The "CCA" path runs the paper's full component assembly: a Ccaffeine-
// role framework per rank, a driver component connected to a solver
// component through the LISI SparseSolver port. The "NonCCA" path solves
// the identical problem with direct calls into the same native solver
// package — no ports, no adapter. The difference between the two is
// precisely the quantity the paper reports: the cost of the interface
// layer.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/aztec"
	"repro/internal/cca"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/ksp"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/slu"
	"repro/internal/telemetry"
)

// Solver identifies which solver component / native package a run uses.
type Solver string

// The three solver backends of the paper's experiment (§8).
const (
	SolverKSP   Solver = "petsc-role(ksp)"
	SolverAztec Solver = "trilinos-role(aztec)"
	SolverSLU   Solver = "superlu-role(slu)"
)

// registryName maps the benchmark's solver tag to the name the backend
// registered under in the core registry.
func (s Solver) registryName() (string, error) {
	switch s {
	case SolverKSP:
		return "petsc", nil
	case SolverAztec:
		return "trilinos", nil
	case SolverSLU:
		return "superlu", nil
	}
	return "", fmt.Errorf("bench: unknown solver %q", s)
}

// class resolves the CCA class name of the solver component through the
// core backend registry.
func (s Solver) class() (string, error) {
	name, err := s.registryName()
	if err != nil {
		return "", err
	}
	info, ok := core.Lookup(name)
	if !ok {
		return "", fmt.Errorf("bench: backend %q is not registered", name)
	}
	return info.Class, nil
}

// faultHookFor, when set, arms a deterministic fault-injection hook on
// every measurement world the harness creates. The constructor is called
// with the world size once per world, so each measurement replays the
// schedule from event zero — repeated runs stay comparable.
var faultHookFor func(size int) comm.FaultHook

// SetFaultInjector installs (or, with nil, removes) the constructor used
// to arm fault injection on the harness's worlds. Used to measure solver
// resilience overhead under a chaos schedule (cmd/lisi-bench -fault-spec).
func SetFaultInjector(fn func(size int) comm.FaultHook) { faultHookFor = fn }

// newWorld builds one measurement world, armed with the configured fault
// hook when one is installed.
func newWorld(p int) (*comm.World, error) {
	w, err := comm.NewWorld(p)
	if err != nil {
		return nil, err
	}
	if faultHookFor != nil {
		if h := faultHookFor(p); h != nil {
			w.SetFaultHook(h)
		}
	}
	return w, nil
}

// DefaultParams returns the LISI parameters used by the experiments:
// GMRES(30) with ILU-class preconditioning at tolerance 1e-6 (ignored by
// the direct component).
func DefaultParams() map[string]string {
	return map[string]string{
		"solver":         "gmres",
		"preconditioner": "ilu",
		"restart":        "30",
		"tol":            "1e-6",
		"maxits":         "20000",
	}
}

// Measurement is one timed solve.
type Measurement struct {
	Seconds    float64
	Iterations int
}

// RunCCA executes one measured solve through the full CCA assembly on p
// simulated processors. Cancelling ctx unblocks every rank and returns
// the cancellation cause.
func RunCCA(ctx context.Context, p int, solver Solver, gridN int, params map[string]string) (Measurement, error) {
	res, wall, _, err := runCCA(ctx, p, solver, mesh.PaperProblem(gridN), params, nil)
	m := Measurement{Seconds: wall}
	if res != nil {
		m.Iterations = res.Iterations
	}
	return m, err
}

// RunNonCCA executes the identical solve with direct native-package
// calls (mesh generation included, exactly as in the CCA path).
func RunNonCCA(ctx context.Context, p int, solver Solver, gridN int, params map[string]string) (Measurement, error) {
	iters, wall, _, err := runNative(ctx, p, solver, mesh.PaperProblem(gridN), params, nil)
	return Measurement{Seconds: wall, Iterations: iters}, err
}

// runCCA is the one CCA assembly: on every rank a framework, a driver
// component and the solver component connected through the SparseSolver
// port, then one SolveProblem timed between two barriers. rec rides on
// rank 0's driver (nil for the timed Figure 5 / Table 1 runs). It returns
// rank 0's driver result (nil when the solve failed) and wall time, and
// the world for its comm totals; the world is nil when it never ran.
func runCCA(ctx context.Context, p int, solver Solver, problem mesh.Problem, params map[string]string, rec *telemetry.Recorder) (*core.Result, float64, *comm.World, error) {
	class, err := solver.class()
	if err != nil {
		return nil, 0, nil, err
	}
	w, err := newWorld(p)
	if err != nil {
		return nil, 0, nil, err
	}
	// Collect garbage left by the previous measurement so its cost is not
	// billed to this one (both paths allocate heavily).
	runtime.GC()
	var res *core.Result
	var wall float64
	var solveErr error
	err = w.RunContext(ctx, func(c *comm.Comm) {
		fw := cca.NewFramework(c)
		if err := fw.CreateInstance("driver", core.ClassDriver); err != nil {
			solveErr = err
			return
		}
		if err := fw.CreateInstance("solver", class); err != nil {
			solveErr = err
			return
		}
		if err := fw.Connect("driver", "solver", "solver", core.PortSparseSolver); err != nil {
			solveErr = err
			return
		}
		comp, _ := fw.Instance("driver")
		driver := comp.(*core.DriverComponent)
		if c.Rank() == 0 {
			driver.SetRecorder(rec)
		}

		c.Barrier()
		start := time.Now()
		r, err := driver.SolveProblem(problem, core.CSR, params)
		c.Barrier()
		if c.Rank() == 0 {
			wall = time.Since(start).Seconds()
			res, solveErr = r, err
		}
	})
	if err != nil {
		return nil, 0, nil, err
	}
	return res, wall, w, solveErr
}

// runNative is the one NonCCA run: the native solve of nativeSolveRec
// timed between two barriers on every rank, with rec (nil for the timed
// runs) on rank 0. It returns rank 0's iteration count and wall time, and
// the world for its comm totals; the world is nil when it never ran.
func runNative(ctx context.Context, p int, solver Solver, problem mesh.Problem, params map[string]string, rec *telemetry.Recorder) (int, float64, *comm.World, error) {
	if _, err := solver.class(); err != nil {
		return 0, 0, nil, err
	}
	w, err := newWorld(p)
	if err != nil {
		return 0, 0, nil, err
	}
	runtime.GC()
	var iters int
	var wall float64
	var solveErr error
	err = w.RunContext(ctx, func(c *comm.Comm) {
		var r *telemetry.Recorder
		if c.Rank() == 0 {
			r = rec
		}
		c.Barrier()
		start := time.Now()
		it, err := nativeSolveRec(c, solver, problem, params, r)
		c.Barrier()
		if c.Rank() == 0 {
			wall = time.Since(start).Seconds()
			iters, solveErr = it, err
		}
	})
	if err != nil {
		return 0, 0, nil, err
	}
	return iters, wall, w, solveErr
}

// nativeSolveRec is the hand-coded application a developer would write
// against each package directly (the paper's NonCCA baseline). rec (nil
// for untimed runs) captures the same setup/precond/iterate phases the
// CCA path records, minus the port layer that does not exist here.
func nativeSolveRec(c *comm.Comm, solver Solver, problem mesh.Problem, params map[string]string, rec *telemetry.Recorder) (int, error) {
	l, err := pmat.EvenLayout(c, problem.N())
	if err != nil {
		return 0, err
	}
	localA, b, err := problem.GenerateLocal(l)
	if err != nil {
		return 0, err
	}
	switch solver {
	case SolverKSP:
		stopSetup := rec.StartPhase(telemetry.PhaseSetup)
		pm, err := pmat.NewMat(l, localA)
		if err != nil {
			stopSetup()
			return 0, err
		}
		k := ksp.New(c)
		k.SetOperators(ksp.NewMat(pm))
		stopSetup()
		k.SetRecorder(rec)
		if err := k.SetType(ksp.TypeGMRES); err != nil {
			return 0, err
		}
		if err := k.SetPCType(ksp.PCILU); err != nil {
			return 0, err
		}
		k.SetTolerances(paramFloat(params, "tol", 1e-8), -1, -1, paramInt(params, "maxits", 20000))
		if err := k.SetRestart(paramInt(params, "restart", 30)); err != nil {
			return 0, err
		}
		x := make([]float64, l.LocalN)
		if err := k.Solve(b, x); err != nil {
			return 0, err
		}
		return k.Iterations(), nil

	case SolverAztec:
		stopSetup := rec.StartPhase(telemetry.PhaseSetup)
		mp, err := aztec.NewMapWithLocal(c, l.LocalN)
		if err != nil {
			stopSetup()
			return 0, err
		}
		crs := aztec.NewCrsMatrix(mp)
		for lr := 0; lr < l.LocalN; lr++ {
			cols, vals := localA.RowView(lr)
			if err := crs.InsertGlobalValues(l.Start+lr, cols, vals); err != nil {
				stopSetup()
				return 0, err
			}
		}
		if err := crs.FillComplete(); err != nil {
			stopSetup()
			return 0, err
		}
		stopSetup()
		s := aztec.NewSolver(c)
		s.SetRecorder(rec)
		s.SetUserMatrix(crs)
		s.Options()[aztec.AZSolver] = aztec.AZGMRES
		s.Options()[aztec.AZPrecond] = aztec.AZDomDecomp
		s.Options()[aztec.AZKspace] = paramInt(params, "restart", 30)
		x := make([]float64, l.LocalN)
		if err := s.Iterate(x, b, paramInt(params, "maxits", 20000), paramFloat(params, "tol", 1e-8)); err != nil {
			return 0, err
		}
		return s.NumIters(), nil

	case SolverSLU:
		stopSetup := rec.StartPhase(telemetry.PhaseSetup)
		pm, err := pmat.NewMat(l, localA)
		if err != nil {
			stopSetup()
			return 0, err
		}
		d, err := slu.NewDistSolver(pm, slu.DefaultOptions())
		stopSetup()
		if err != nil {
			return 0, err
		}
		d.SetRecorder(rec)
		if _, err := d.Solve(b); err != nil {
			return 0, err
		}
		return 0, nil
	}
	return 0, fmt.Errorf("bench: unknown solver %q", solver)
}

func paramFloat(params map[string]string, key string, def float64) float64 {
	if v, ok := params[key]; ok {
		var f float64
		if _, err := fmt.Sscanf(v, "%g", &f); err == nil {
			return f
		}
	}
	return def
}

func paramInt(params map[string]string, key string, def int) int {
	if v, ok := params[key]; ok {
		var i int
		if _, err := fmt.Sscanf(v, "%d", &i); err == nil {
			return i
		}
	}
	return def
}

// UseMedian selects the aggregation across repeated runs: the paper
// averaged ten runs on a dedicated cluster; on a shared machine the
// median is far more robust to scheduler outliers, so it is the default
// here (documented in EXPERIMENTS.md).
var UseMedian = true

// mean runs fn `runs` times and aggregates the times ("timing results
// are collected for ten runs for each experiment and a mean value is
// picked", §8 — see UseMedian). Cancelling ctx stops the repetitions
// before the next one starts and returns the cancellation cause.
func mean(ctx context.Context, runs int, fn func() (Measurement, error)) (Measurement, error) {
	if runs < 1 {
		runs = 1
	}
	times := make([]float64, 0, runs)
	var last Measurement
	for r := 0; r < runs; r++ {
		if err := ctx.Err(); err != nil {
			return Measurement{}, err
		}
		m, err := fn()
		if err != nil {
			return Measurement{}, err
		}
		times = append(times, m.Seconds)
		last = m
	}
	if UseMedian {
		sort.Float64s(times)
		mid := len(times) / 2
		if len(times)%2 == 1 {
			last.Seconds = times[mid]
		} else {
			last.Seconds = (times[mid-1] + times[mid]) / 2
		}
	} else {
		total := 0.0
		for _, t := range times {
			total += t
		}
		last.Seconds = total / float64(len(times))
	}
	return last, nil
}

// Fig5Point is one x-position of one Figure 5 panel.
type Fig5Point struct {
	Procs  int
	CCA    float64
	NonCCA float64
}

// Figure5 regenerates one panel of Figure 5: CCA vs NonCCA execution
// time for the given solver over the processor counts. On error — in
// particular on ctx cancellation — the points completed so far are
// returned alongside the error so callers can print partial results.
func Figure5(ctx context.Context, solver Solver, gridN int, procs []int, runs int, params map[string]string) ([]Fig5Point, error) {
	var out []Fig5Point
	for _, p := range procs {
		cca, err := mean(ctx, runs, func() (Measurement, error) { return RunCCA(ctx, p, solver, gridN, params) })
		if err != nil {
			return out, fmt.Errorf("bench: figure5 %s p=%d (CCA): %w", solver, p, err)
		}
		non, err := mean(ctx, runs, func() (Measurement, error) { return RunNonCCA(ctx, p, solver, gridN, params) })
		if err != nil {
			return out, fmt.Errorf("bench: figure5 %s p=%d (NonCCA): %w", solver, p, err)
		}
		out = append(out, Fig5Point{Procs: p, CCA: cca.Seconds, NonCCA: non.Seconds})
	}
	return out, nil
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	NNZ      int
	CCA      float64
	NonCCA   float64
	Overhead float64
	Percent  float64
	Iters    int
}

// Table1 regenerates Table 1: the PETSc-role component on procs
// processors across problem sizes given as nonzero counts. On error the
// rows completed so far are returned alongside the error (partial
// results on ctx cancellation).
func Table1(ctx context.Context, nnzs []int, procs, runs int, params map[string]string) ([]Table1Row, error) {
	var out []Table1Row
	for _, nnz := range nnzs {
		n, err := mesh.GridForNNZ(nnz)
		if err != nil {
			return out, err
		}
		cca, err := mean(ctx, runs, func() (Measurement, error) { return RunCCA(ctx, procs, SolverKSP, n, params) })
		if err != nil {
			return out, fmt.Errorf("bench: table1 nnz=%d (CCA): %w", nnz, err)
		}
		non, err := mean(ctx, runs, func() (Measurement, error) { return RunNonCCA(ctx, procs, SolverKSP, n, params) })
		if err != nil {
			return out, fmt.Errorf("bench: table1 nnz=%d (NonCCA): %w", nnz, err)
		}
		row := Table1Row{
			NNZ:      nnz,
			CCA:      cca.Seconds,
			NonCCA:   non.Seconds,
			Overhead: cca.Seconds - non.Seconds,
			Iters:    cca.Iterations,
		}
		if non.Seconds > 0 {
			row.Percent = 100 * row.Overhead / non.Seconds
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatFigure5 renders one panel as the paper's series (time vs
// processors, one line per path).
func FormatFigure5(solver Solver, pts []Fig5Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — %s: execution time (s) vs processors\n", solver)
	fmt.Fprintf(&b, "%-6s %-12s %-12s %-10s\n", "procs", "CCA(s)", "NonCCA(s)", "diff(s)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-6d %-12.4f %-12.4f %-10.4f\n", p.Procs, p.CCA, p.NonCCA, p.CCA-p.NonCCA)
	}
	return b.String()
}

// FormatTable1 renders Table 1 exactly in the paper's column layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1 — Computing Times of PETSc-role Component with and without the LISI interface\n")
	fmt.Fprintf(&b, "%-8s %-9s %-10s %-18s %-6s\n", "nnz", "CCA(s)", "NonCCA(s)", "Overhead(s)/(%)", "Iters")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %-9.3f %-10.3f %.3f/%-12.2f %-6d\n", r.NNZ, r.CCA, r.NonCCA, r.Overhead, r.Percent, r.Iters)
	}
	return b.String()
}

// PaperNNZs are Table 1's problem sizes.
func PaperNNZs() []int { return []int{12300, 49600, 199200, 448800, 798400} }

// PaperProcs are Figure 5's processor counts.
func PaperProcs() []int { return []int{1, 2, 4, 8} }

// Solvers lists the three benchmarked components in display order.
func Solvers() []Solver { return []Solver{SolverKSP, SolverAztec, SolverSLU} }

// SortRows orders Table 1 rows by nnz (stable output regardless of the
// requested order).
func SortRows(rows []Table1Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].NNZ < rows[j].NNZ })
}
