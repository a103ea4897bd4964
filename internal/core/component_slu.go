package core

import (
	"strconv"

	"repro/internal/cca"
	"repro/internal/pmat"
	"repro/internal/slu"
	"repro/internal/telemetry"
)

// SLUComponent is the LISI solver component backed by the SuperLU-role
// slu direct solver. It demonstrates the generic parameter design
// (§6.5) accommodating direct-solver vocabulary (ordering, pivot
// threshold, equilibration, refinement) while tolerating the common
// iterative keys — a direct solver has no tolerance or iteration limit,
// so those are accepted and recorded as ignored, letting an application
// swap solver components without changing its parameter-setting code.
type SLUComponent struct {
	baseAdapter

	dist *slu.DistSolver
	opts slu.Options // the factor-affecting parameters, read by configure

	// seen is dist's set-up record as of the last (re)build, kept so the
	// next one's share can be added to the recorder.
	seen slu.SetupStats

	refineSteps int // the "refine_steps" parameter, read by configure
}

var _ SparseSolver = (*SLUComponent)(nil)
var _ cca.Component = (*SLUComponent)(nil)

// NewSLUComponent returns an unconfigured component (CCA class
// ClassSLUSolver).
func NewSLUComponent() *SLUComponent {
	return &SLUComponent{baseAdapter: newBaseAdapter("lisi.solver.superlu", sluParams, false)}
}

// SetServices implements cca.Component.
func (sc *SLUComponent) SetServices(svc cca.Services) error {
	return sc.baseAdapter.setServices(svc, sc)
}

// sluParams is the direct solver's vocabulary. The five common
// iterative keys are accepted with any value and ignored, so an
// application swaps an iterative component for this one without
// changing its parameter-setting code.
var sluParams = []Param{
	{Key: "ordering", Kind: ParamEnum, Names: []string{"natural", "", "rcm", "mmd", "mindegree", "amd"},
		vals:   []int{int(slu.OrderNatural), int(slu.OrderNatural), int(slu.OrderRCM), int(slu.OrderMinDegree), int(slu.OrderMinDegree), int(slu.OrderMinDegree)},
		effect: rebuild, to: "Options.ColPerm", slu: func(sc *SLUComponent, v paramVal) { sc.opts.ColPerm = slu.Ordering(v.i) },
		Doc: "fill-reducing column ordering (default `mmd`); a change re-analyses"},
	{Key: "pivot_threshold", Kind: ParamFloat, Bounds: Bounds{Min: 0, Max: 1, MinOpen: true}, effect: rebuild, Doc: "diagonal pivot threshold (default 1, partial pivoting)",
		to: "Options.PivotThreshold", slu: func(sc *SLUComponent, v paramVal) { sc.opts.PivotThreshold = v.f }},
	{Key: "equilibrate", Kind: ParamBool, effect: rebuild, Doc: "row and column scaling before the factorization (default true)",
		to: "Options.Equilibrate", slu: func(sc *SLUComponent, v paramVal) { sc.opts.Equilibrate = v.i == 1 }},
	{Key: "refine_steps", Kind: ParamInt, Bounds: nonNeg, Doc: "iterative-refinement steps after each solve; never refactors",
		to: "SolveRefinedInto steps", slu: func(sc *SLUComponent, v paramVal) { sc.refineSteps = v.i }},
	{Key: "solver", Kind: ParamIgnored, effect: noEffect, Doc: "accepted for swapping, never read; GetAll adds `ignored.<key>`"},
	{Key: "preconditioner", Kind: ParamIgnored, effect: noEffect, Doc: "accepted for swapping, never read; GetAll adds `ignored.<key>`"},
	{Key: "tol", Kind: ParamIgnored, effect: noEffect, Doc: "accepted for swapping, never read; GetAll adds `ignored.<key>`"},
	{Key: "maxits", Kind: ParamIgnored, effect: noEffect, Doc: "accepted for swapping, never read; GetAll adds `ignored.<key>`"},
	{Key: "restart", Kind: ParamIgnored, effect: noEffect, Doc: "accepted for swapping, never read; GetAll adds `ignored.<key>`"},
	workersParam,
}

// GetAll reports the configuration.
func (sc *SLUComponent) GetAll() string {
	extra := map[string]string{
		"backend": "slu (SuperLU-role, direct)",
		// Rank 0 analyses and factors; other ranks report 0 here.
		"analyses":          strconv.Itoa(sc.seen.Analyses),
		"symbolic_reuses":   strconv.Itoa(sc.seen.SymbolicReuses),
		"static_refactors":  strconv.Itoa(sc.seen.StaticRefactors),
		"rowperm_fallbacks": strconv.Itoa(sc.seen.RowPermFallbacks),
	}
	if sc.dist != nil {
		extra["fill_ratio"] = strconv.FormatFloat(sc.dist.FillRatio(), 'g', 4, 64)
	}
	return sc.getAll(extra)
}

// Solve implements the LISI solve on the direct backend. The
// factorization is reused across right-hand sides and across Solve calls
// (use case §5.2b) until SetupMatrix changes the matrix or Set changes a
// factor-affecting parameter; then it is redone, keeping the symbolic
// analysis when the pattern and ordering allow (use case §5.2d).
func (sc *SLUComponent) Solve(solution []float64, status []float64, numLocalRow, statusLength int) int {
	return sc.solve(sc, solution, status, numLocalRow, statusLength)
}

// configure reads the parameters (a solveHooks hook). The factor is a
// function of the matrix and of slu.Options, so a change of the options
// drops the built operator and the skeleton refactors: refine_steps
// changes cfgVer but not the options value.
func (sc *SLUComponent) configure(staged) int {
	built := sc.opts
	sc.opts, sc.refineSteps = slu.DefaultOptions(), 0
	sc.each(func(p *Param, v paramVal) {
		p.slu(sc, v)
	})
	if sc.opts != built {
		sc.built = staged{}
	}
	return OK
}

// rebuild factors the slot's operator. A live solver refactors: same
// pattern and ordering take the numeric phase only (§5.2d) — over the
// recorded row permutation and L/U structure while every pivot
// validates — anything else is re-analysed inside, and the L/U storage
// is refilled either way.
func (sc *SLUComponent) rebuild(op staged) (int, FailReason) {
	stopSetup := sc.rec.StartPhase(telemetry.PhaseSetup)
	var err error
	if sc.dist == nil {
		sc.dist, err = slu.NewDistSolver(op.mat, sc.opts)
	} else {
		err = sc.dist.Refactor(op.mat, sc.opts)
	}
	stopSetup()
	sc.recordSetup()
	if err != nil {
		return ErrSolveFailed, classifySolveError(err)
	}
	return OK, FailNone
}

// attach hands the factor the recorder; superlu builds no worker pool.
func (sc *SLUComponent) attach(staged) *pmat.Mat {
	sc.dist.SetRecorder(sc.rec)
	return nil
}

// solveOne runs the triangular solves and refinement on one right-hand
// side. A direct solve reports no iterations, and a failed one no
// residual.
func (sc *SLUComponent) solveOne(x, b []float64) (int, float64, FailReason) {
	res, err := sc.dist.SolveRefinedInto(x, b, sc.refineSteps)
	if err != nil {
		return 0, 0, classifySolveError(err)
	}
	return 0, res, FailNone
}

// recordSetup feeds the recorder what the set-up just run did on this
// rank: analysed or reused, replayed the factor's structure or fell back
// to the full numeric pass, and the ordering/numeric split of its
// PhaseSetup time.
func (sc *SLUComponent) recordSetup() {
	if sc.dist == nil {
		return
	}
	st := sc.dist.SetupStats()
	d := st.Sub(sc.seen)
	sc.seen = st
	sc.rec.Add("slu.analyses", int64(d.Analyses))
	sc.rec.Add("slu.symbolic_reuses", int64(d.SymbolicReuses))
	sc.rec.Add("slu.static_refactors", int64(d.StaticRefactors))
	sc.rec.Add("slu.rowperm_fallbacks", int64(d.RowPermFallbacks))
	sc.rec.Add("slu.ordering_ns", d.OrderingNs)
	sc.rec.Add("slu.numeric_ns", d.NumericNs)
}

func init() {
	Register(BackendInfo{
		Name:   "superlu",
		Class:  ClassSLUSolver,
		Kind:   "direct (sparse LU)",
		Doc:    "SuperLU-role `slu` package: distributed LU factorization with reuse across repeated solves",
		Params: sluParams,
	}, func() SparseSolver { return NewSLUComponent() })
}
