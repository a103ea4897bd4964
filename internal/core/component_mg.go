package core

import (
	"errors"
	"strconv"

	"repro/internal/cca"
	"repro/internal/mg"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// MGComponent is the multilevel LISI solver component (the paper's §5.2e
// recursion, deferred there to future work): multigrid on the matrix
// staged through the port, whose n² rows are an n×n grid (n odd). The
// hierarchy is built on the port's operator with Galerkin coarse levels
// and — demonstrating LISI re-entrancy — the coarsest-level solve is
// delegated to an inner SLUComponent *through the SparseSolver
// interface*.
//
// Its parameters are mgParams.
type MGComponent struct {
	baseAdapter

	// opts are the mg options configure reads from the parameters; the
	// hierarchy solver is built from them on the slot's operator.
	opts     mg.Options
	solver   *mg.Solver
	coarse   *SLUComponent
	coarseUp bool // coarse matrix already staged

	// Persistent coarse-solve buffers: the layout of the coarsest
	// system, this rank's solution block, the gathered global solution
	// handed back to mg, and the inner component's status array. The
	// coarse solve runs once per cycle, so its steady state must not
	// allocate either.
	coarseL      *pmat.Layout
	coarseX      []float64
	coarseGlob   []float64
	coarseStatus [StatusLen]float64
}

var _ SparseSolver = (*MGComponent)(nil)
var _ cca.Component = (*MGComponent)(nil)

// NewMGComponent returns an unconfigured component (CCA class
// ClassMGSolver).
func NewMGComponent() *MGComponent {
	return &MGComponent{baseAdapter: newBaseAdapter("lisi.solver.mg", mgParams, false)}
}

// SetServices implements cca.Component.
func (mc *MGComponent) SetServices(svc cca.Services) error {
	return mc.baseAdapter.setServices(svc, mc)
}

// mgParams is the multigrid vocabulary: every key it reads enters
// mg.Options, so a change rebuilds the hierarchy. The grid side is the
// staged matrix's, so grid_n is accepted and never read.
var mgParams = []Param{
	{Key: "grid_n", Kind: ParamIgnored, effect: noEffect, Doc: "accepted, never read (the grid side is √rows of the staged matrix); GetAll adds `ignored.<key>`"},
	{Key: "tol", Kind: ParamFloat, Bounds: positive, effect: rebuild, Doc: "relative residual tolerance of the cycles",
		to: "Options.Tol", mg: func(mc *MGComponent, v paramVal) { mc.opts.Tol = v.f }},
	{Key: "cycles", Kind: ParamInt, Bounds: atLeast1, effect: rebuild, Doc: "cycle limit",
		to: "Options.MaxCycles", mg: func(mc *MGComponent, v paramVal) { mc.opts.MaxCycles = v.i }},
	{Key: "omega", Kind: ParamFloat, Bounds: positive, effect: rebuild, Doc: "Jacobi smoother damping (lowered on a level that is not diagonally dominant)",
		to: "Options.Omega", mg: func(mc *MGComponent, v paramVal) { mc.opts.Omega = v.f }},
	{Key: "smooth_sweeps", Kind: ParamInt, Bounds: atLeast1, effect: rebuild, Doc: "pre- and post-smoothing sweeps",
		to: "Options.Nu1, Nu2", mg: func(mc *MGComponent, v paramVal) { mc.opts.Nu1, mc.opts.Nu2 = v.i, v.i }},
	{Key: "gamma", Kind: ParamInt, Bounds: Bounds{Min: 1, Max: 2}, effect: rebuild, Doc: "cycle index: 1 V-cycle, 2 W-cycle",
		to: "Options.Gamma", mg: func(mc *MGComponent, v paramVal) { mc.opts.Gamma = v.i }},
	workersParam,
}

// GetAll reports the configuration.
func (mc *MGComponent) GetAll() string {
	extra := map[string]string{"backend": "mg (Galerkin multigrid, coarse solve via LISI)"}
	if mc.solver != nil {
		extra["levels"] = strconv.Itoa(mc.solver.Levels())
	}
	return mc.getAll(extra)
}

// coarseSolve drives the inner SLUComponent through the LISI interface —
// one solver component recursively using another via the same port
// contract.
func (mc *MGComponent) coarseSolve(a *sparse.CSR, b []float64) ([]float64, error) {
	c := mc.c
	if mc.coarseL == nil || mc.coarseL.N != a.Rows || mc.coarseL.Comm() != c {
		// The key (coarsest order, communicator) is identical on every
		// rank, so all ranks enter the collective NewLayout together.
		l, err := pmat.EvenLayout(c, a.Rows)
		if err != nil {
			return nil, err
		}
		mc.coarseL = l
		mc.coarseX = make([]float64, l.LocalN)
		mc.coarseGlob = make([]float64, l.N)
	}
	l := mc.coarseL
	if !mc.coarseUp {
		s := mc.coarse
		if code := s.Initialize(c); code != OK {
			return nil, Check(code)
		}
		if err := stage(s, l, a.SubMatrix(l.Start, l.Start+l.LocalN), nil); err != nil {
			return nil, err
		}
		mc.coarseUp = true
	}
	if code := mc.coarse.SetupRHS(b[l.Start:l.Start+l.LocalN], l.LocalN, 1); code != OK {
		return nil, Check(code)
	}
	x := mc.coarseX
	if code := mc.coarse.Solve(x, mc.coarseStatus[:], l.LocalN, StatusLen); code != OK {
		return nil, Check(code)
	}
	return pmat.AllGatherInto(l, mc.coarseGlob, x), nil
}

// Solve implements the LISI solve on the multigrid backend.
func (mc *MGComponent) Solve(solution []float64, status []float64, numLocalRow, statusLength int) int {
	return mc.solve(mc, solution, status, numLocalRow, statusLength)
}

// configure reads the mg options from the parameters (a solveHooks
// hook); the hierarchy is built from them, so it drops the built
// operator and the skeleton rebuilds it.
func (mc *MGComponent) configure(staged) int {
	mc.opts = mg.Options{Coarse: mc.coarseSolve}
	mc.each(func(p *Param, v paramVal) {
		p.mg(mc, v)
	})
	mc.built = staged{}
	return OK
}

// rebuild builds the hierarchy on the slot's operator, with a fresh
// inner coarse component. An operator that is not an odd square grid is
// unsupported; a zero on its diagonal fails the solve as singular.
func (mc *MGComponent) rebuild(op staged) (int, FailReason) {
	defer mc.rec.StartPhase(telemetry.PhaseSetup)()
	mc.coarse = NewSLUComponent()
	mc.coarseUp = false
	s, err := mg.New(mc.c, op.mat, mc.opts)
	switch {
	case errors.Is(err, mg.ErrGrid):
		return ErrUnsupported, FailNone
	case err != nil:
		return ErrSolveFailed, classifySolveError(err)
	}
	mc.solver = s
	return OK, FailNone
}

// attach hands the hierarchy the recorder and the worker pool, and
// labels the solve with its fine operator's format.
func (mc *MGComponent) attach(staged) *pmat.Mat {
	mc.solver.SetRecorder(mc.rec)
	mc.solver.SetPool(mc.workerPool())
	return mc.solver.FineOperator()
}

// solveOne runs V-cycles on one right-hand side. mg's ErrDiverged and
// ErrNoConvergence are classifySolveError's divergence and max
// iterations.
func (mc *MGComponent) solveOne(x, b []float64) (int, float64, FailReason) {
	err := mc.solver.Solve(b, x)
	return mc.solver.Cycles(), mc.solver.ResidualNorm(), classifySolveError(err)
}

func init() {
	Register(BackendInfo{
		Name:   "mg",
		Class:  ClassMGSolver,
		Kind:   "multilevel (Galerkin)",
		Doc:    "multigrid on the staged matrix of an odd n×n grid; delegates the coarse solve to an inner SuperLU component through the port",
		Params: mgParams,
	}, func() SparseSolver { return NewMGComponent() })
}
