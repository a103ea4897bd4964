package core

import (
	"strconv"

	"repro/internal/cca"
	"repro/internal/mesh"
	"repro/internal/mg"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// MGComponent is the multilevel LISI solver component (the paper's §5.2e
// recursion, deferred there to future work). It is a *geometric*
// multigrid for the paper's model PDE on an n×n grid: the component
// rebuilds the grid hierarchy from its parameters, verifies that the
// matrix staged through SetupMatrix is indeed the model operator, and —
// demonstrating LISI re-entrancy — delegates the coarsest-level solve to
// an inner SLUComponent *through the SparseSolver interface*.
//
// Required parameter: "grid_n" (odd; sizes 2^k−1 coarsen fully).
// Optional: "convection" (default 3), "tol", "cycles", "omega",
// "smooth_sweeps".
type MGComponent struct {
	baseAdapter

	// prob and opts are the model problem and the mg options configure
	// reads from the parameters; the hierarchy solver is built from them
	// on the slot's operator.
	prob     mesh.Problem
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
	return &MGComponent{baseAdapter: newBaseAdapter("lisi.solver.mg", checkMGParam, false)}
}

// SetServices implements cca.Component.
func (mc *MGComponent) SetServices(svc cca.Services) error {
	return mc.baseAdapter.setServices(svc, mc)
}

// checkMGParam validates a parameter of the multigrid vocabulary.
func checkMGParam(key, value string) int {
	switch key {
	case "grid_n":
		if v, err := strconv.Atoi(value); err != nil || v < 3 || v%2 == 0 {
			return ErrBadArg
		}
	case "cycles", "smooth_sweeps":
		if v, err := strconv.Atoi(value); err != nil || v < 1 {
			return ErrBadArg
		}
	case "gamma":
		if v, err := strconv.Atoi(value); err != nil || v < 1 || v > 2 {
			return ErrBadArg
		}
	case "tol", "omega":
		if v, ok := floatParam(value); !ok || v <= 0 {
			return ErrBadArg
		}
	case "convection":
		if _, ok := floatParam(value); !ok {
			return ErrBadArg
		}
	case "galerkin":
		if _, err := strconv.ParseBool(value); err != nil {
			return ErrBadArg
		}
	default:
		return ErrUnknownKey
	}
	return OK
}

// GetAll reports the configuration.
func (mc *MGComponent) GetAll() string {
	extra := map[string]string{"backend": "mg (geometric multigrid, coarse solve via LISI)"}
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
		l, err := pmat.NewLayout(c, mesh.LocalRows(a.Rows, c.Size(), c.Rank()))
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

// configure reads the model problem and the mg options from the
// parameters (a solveHooks hook); the hierarchy is built from them, so
// it drops the built operator and the skeleton rebuilds it.
func (mc *MGComponent) configure(staged) int {
	gridN, ok := mc.params["grid_n"]
	if !ok {
		return ErrBadState
	}
	n, _ := strconv.Atoi(gridN)
	p := mesh.PaperProblem(n)
	if v, ok := mc.params["convection"]; ok {
		p.Convection, _ = strconv.ParseFloat(v, 64)
	}
	opts := mg.Options{Coarse: mc.coarseSolve}
	if v, ok := mc.params["tol"]; ok {
		opts.Tol, _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := mc.params["omega"]; ok {
		opts.Omega, _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := mc.params["cycles"]; ok {
		opts.MaxCycles, _ = strconv.Atoi(v)
	}
	if v, ok := mc.params["smooth_sweeps"]; ok {
		opts.Nu1, _ = strconv.Atoi(v)
		opts.Nu2 = opts.Nu1
	}
	if v, ok := mc.params["galerkin"]; ok {
		opts.Galerkin, _ = strconv.ParseBool(v)
	}
	if v, ok := mc.params["gamma"]; ok {
		opts.Gamma, _ = strconv.Atoi(v)
	}
	mc.prob, mc.opts = p, opts
	mc.built = staged{}
	return OK
}

// rebuild builds the hierarchy on the slot's layout, with a fresh inner
// coarse component. Geometric MG is only valid for the model operator:
// the staged matrix must be the discretized PDE.
func (mc *MGComponent) rebuild(op staged) (int, FailReason) {
	if mc.prob.N() != mc.globalCols {
		return ErrBadArg, FailNone
	}
	defer mc.rec.StartPhase(telemetry.PhaseSetup)()
	want, _, err := mc.prob.GenerateLocal(op.mat.L)
	if err != nil {
		return ErrBadArg, FailNone
	}
	if !want.AlmostEqual(op.mat.LocalRowsGlobal(), 1e-9*want.NormInf()) {
		return ErrUnsupported, FailNone
	}
	mc.coarse = NewSLUComponent()
	mc.coarseUp = false
	s, err := mg.New(mc.c, mc.prob, mc.opts)
	if err != nil {
		return ErrBadArg, FailNone
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

// solveOne runs V-cycles on one right-hand side. mg reports "diverged at
// cycle N" or "no convergence in N cycles"; classifySolveError maps both.
func (mc *MGComponent) solveOne(x, b []float64) (int, float64, FailReason) {
	err := mc.solver.Solve(b, x)
	return mc.solver.Cycles(), mc.solver.ResidualNorm(), classifySolveError(err)
}

func init() {
	Register(BackendInfo{
		Name:  "mg",
		Class: ClassMGSolver,
		Kind:  "multilevel (geometric)",
		Doc:   "geometric multigrid for the model PDE; delegates the coarse solve to an inner SuperLU component through the port (requires `grid_n`)",
	}, func() SparseSolver { return NewMGComponent() })
}
