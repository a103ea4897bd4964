package core

import (
	"strconv"

	"repro/internal/aztec"
	"repro/internal/cca"
	"repro/internal/pmat"
)

// AztecComponent is the LISI solver component backed by the
// Trilinos-role aztec package. Unlike the ksp component — whose backend
// takes string options — this adapter must translate LISI's generic
// string parameters into Aztec's integer option and double parameter
// arrays, demonstrating that one interface spans heterogeneous control
// surfaces (the paper's core claim).
type AztecComponent struct {
	baseAdapter

	// s is the configured solver: the skeleton rebuilds it only when the
	// parameters or the communicator changed, so its option/param
	// arrays, workspaces, and preconditioner survive the steady state,
	// and re-binds the operator only when the slot changed —
	// SetUserMatrix invalidates the solver's preconditioner cache.
	s *aztec.Solver
}

var _ SparseSolver = (*AztecComponent)(nil)
var _ cca.Component = (*AztecComponent)(nil)

// NewAztecComponent returns an unconfigured component (CCA class
// ClassAztecSolver).
func NewAztecComponent() *AztecComponent {
	return &AztecComponent{baseAdapter: newBaseAdapter("lisi.solver.aztec", checkAztecParam, true)}
}

// SetServices implements cca.Component.
func (ac *AztecComponent) SetServices(svc cca.Services) error {
	return ac.baseAdapter.setServices(svc, ac)
}

// aztecSolverNames maps LISI "solver" values to AZ solver ids.
var aztecSolverNames = map[string]int{
	"cg":       aztec.AZCG,
	"gmres":    aztec.AZGMRES,
	"cgs":      aztec.AZCGS,
	"bicgstab": aztec.AZBiCGStab,
}

// aztecPCNames maps LISI "preconditioner" values to AZ precond ids.
var aztecPCNames = map[string]int{
	"none":      aztec.AZNone,
	"jacobi":    aztec.AZJacobi,
	"neumann":   aztec.AZNeumann,
	"ls":        aztec.AZLs,
	"symgs":     aztec.AZSymGS,
	"domdecomp": aztec.AZDomDecomp,
	"ilut":      aztec.AZDomDecomp,
	"ilu":       aztec.AZDomDecomp, // closest Aztec analogue of generic "ilu"
}

var aztecScalingNames = map[string]int{
	"none":   aztec.AZNoScaling,
	"rowsum": aztec.AZRowSum,
}

var aztecConvNames = map[string]int{
	"r0":    aztec.AZr0,
	"rhs":   aztec.AZrhs,
	"anorm": aztec.AZAnorm,
}

// checkAztecParam validates a parameter of the aztec vocabulary (§6.5).
func checkAztecParam(key, value string) int {
	switch key {
	case "solver":
		if _, ok := aztecSolverNames[value]; !ok {
			return ErrBadArg
		}
	case "preconditioner":
		if _, ok := aztecPCNames[value]; !ok {
			return ErrBadArg
		}
	case "scaling":
		if _, ok := aztecScalingNames[value]; !ok {
			return ErrBadArg
		}
	case "conv":
		if _, ok := aztecConvNames[value]; !ok {
			return ErrBadArg
		}
	case "tol", "fill":
		if v, ok := floatParam(value); !ok || v <= 0 {
			return ErrBadArg
		}
	case "drop_tol":
		if v, ok := floatParam(value); !ok || v < 0 {
			return ErrBadArg
		}
	case "maxits", "restart":
		if v, err := strconv.Atoi(value); err != nil || v < 1 {
			return ErrBadArg
		}
	case "poly_ord", "overlap":
		if v, err := strconv.Atoi(value); err != nil || v < 0 {
			return ErrBadArg
		}
	default:
		return ErrUnknownKey
	}
	return OK
}

// GetAll reports the configuration (§7.2).
func (ac *AztecComponent) GetAll() string {
	return ac.getAll(map[string]string{"backend": "aztec (Trilinos-role)"})
}

// configure builds the solver and fills its AZ_* arrays from the LISI
// parameter store (a solveHooks hook); a shell takes no preconditioner.
func (ac *AztecComponent) configure(op staged) int {
	s := aztec.NewSolver(ac.c)
	o := s.Options()
	p := s.Params()
	if v, ok := ac.params["solver"]; ok {
		o[aztec.AZSolver] = aztecSolverNames[v]
	}
	o[aztec.AZPrecond] = aztec.AZDomDecomp
	if v, ok := ac.params["preconditioner"]; ok {
		o[aztec.AZPrecond] = aztecPCNames[v]
	}
	if op.shell != nil {
		o[aztec.AZPrecond] = aztec.AZNone
	}
	if v, ok := ac.params["scaling"]; ok {
		o[aztec.AZScaling] = aztecScalingNames[v]
	}
	if v, ok := ac.params["conv"]; ok {
		o[aztec.AZConv] = aztecConvNames[v]
	}
	if v, ok := ac.params["tol"]; ok {
		p[aztec.AZTol], _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := ac.params["drop_tol"]; ok {
		p[aztec.AZDrop], _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := ac.params["fill"]; ok {
		p[aztec.AZIlutFill], _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := ac.params["maxits"]; ok {
		o[aztec.AZMaxIter], _ = strconv.Atoi(v)
	} else {
		o[aztec.AZMaxIter] = 10000
	}
	if v, ok := ac.params["restart"]; ok {
		o[aztec.AZKspace], _ = strconv.Atoi(v)
	}
	if v, ok := ac.params["poly_ord"]; ok {
		o[aztec.AZPolyOrd], _ = strconv.Atoi(v)
	}
	if v, ok := ac.params["overlap"]; ok {
		o[aztec.AZOverlap], _ = strconv.Atoi(v)
	}
	ac.s = s
	if op == ac.built {
		ac.rebuild(op) // the slot is unchanged: bind it to the new solver
	}
	return OK
}

// rebuild binds the slot to the solver: a view over the operator, or
// the shell as a matrix-free operator.
func (ac *AztecComponent) rebuild(op staged) (int, FailReason) {
	if op.shell != nil {
		ac.s.SetUserOperator(op.shell)
	} else {
		ac.s.SetUserMatrix(aztec.NewCrsMatrixView(op.mat))
	}
	return OK, FailNone
}

// attach hands the solver the recorder and the worker pool.
func (ac *AztecComponent) attach(op staged) *pmat.Mat {
	ac.s.SetRecorder(ac.rec)
	ac.s.SetPool(ac.workerPool())
	return op.mat
}

// Solve implements the LISI solve on the aztec backend.
func (ac *AztecComponent) Solve(solution []float64, status []float64, numLocalRow, statusLength int) int {
	return ac.solve(ac, solution, status, numLocalRow, statusLength)
}

// solveOne runs the configured Aztec solver on one right-hand side.
func (ac *AztecComponent) solveOne(x, b []float64) (int, float64, FailReason) {
	if err := ac.s.Solve(x, b); err != nil {
		return ac.s.NumIters(), ac.s.Status()[aztec.AZr], classifyAztecFailure(ac.s, err)
	}
	return ac.s.NumIters(), ac.s.Status()[aztec.AZr], FailNone
}

// classifyAztecFailure normalizes aztec's status[AZWhy] termination
// codes (and textual setup errors such as ILUT zero pivots) into a
// FailReason.
func classifyAztecFailure(s *aztec.Solver, err error) FailReason {
	switch int(s.Status()[aztec.AZWhy]) {
	case aztec.AZMaxIts:
		return FailMaxIterations
	case aztec.AZBreakdown:
		return FailBreakdown
	case aztec.AZIllCond:
		return FailSingular
	}
	return classifySolveError(err)
}

func init() {
	Register(BackendInfo{
		Name:  "trilinos",
		Class: ClassAztecSolver,
		Kind:  "iterative (Krylov)",
		Doc:   "Trilinos-role `aztec` package: integer option / double parameter control surface behind the same port",
	}, func() SparseSolver { return NewAztecComponent() })
}
