package core

import (
	"strconv"

	"repro/internal/aztec"
	"repro/internal/cca"
	"repro/internal/comm"
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

	// The configured solver is cached across Solve calls (keyed on the
	// parameter-store version and the communicator) so its option/param
	// arrays, workspaces, and preconditioner survive the steady state.
	// The matrix/operator is re-bound only when it actually changed —
	// SetUserMatrix invalidates the solver's preconditioner cache.
	s       *aztec.Solver
	sVer    int
	sComm   *comm.Comm
	built   *pmat.Mat    // staged operator s views
	sLayout *pmat.Layout // layout the matrix-free operator was bound with
}

var _ SparseSolver = (*AztecComponent)(nil)
var _ cca.Component = (*AztecComponent)(nil)

// NewAztecComponent returns an unconfigured component (CCA class
// ClassAztecSolver).
func NewAztecComponent() *AztecComponent {
	return &AztecComponent{baseAdapter: newBaseAdapter("lisi.solver.aztec", checkAztecParam)}
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
	return ac.getAll(map[string]string{
		"backend":        "aztec (Trilinos-role)",
		"matrix_free":    strconv.FormatBool(ac.mf != nil),
		"factorizations": strconv.Itoa(ac.factorizations),
	})
}

// configure builds the solver and fills its AZ_* arrays from the LISI
// parameter store.
func (ac *AztecComponent) configure() *aztec.Solver {
	s := aztec.NewSolver(ac.c)
	o := s.Options()
	p := s.Params()
	if v, ok := ac.params["solver"]; ok {
		o[aztec.AZSolver] = aztecSolverNames[v]
	}
	if v, ok := ac.params["preconditioner"]; ok {
		o[aztec.AZPrecond] = aztecPCNames[v]
	} else if ac.mf == nil {
		o[aztec.AZPrecond] = aztec.AZDomDecomp
	}
	if ac.mf != nil {
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
	return s
}

// Solve implements the LISI solve on the aztec backend.
func (ac *AztecComponent) Solve(solution []float64, status []float64, numLocalRow, statusLength int) int {
	l, code := ac.solvePrep(solution, status, numLocalRow)
	if code != OK {
		return code
	}

	rebuilt := false
	if ac.s == nil || ac.sVer != ac.cfgVer || ac.sComm != ac.c {
		ac.s = ac.configure()
		ac.sVer, ac.sComm = ac.cfgVer, ac.c
		rebuilt = true
	}
	s := ac.s
	if ac.mf != nil {
		if rebuilt || ac.sLayout != l {
			s.SetUserOperator(&lisiOperator{m: aztec.MapFromLayout(l), mf: ac.mf})
			ac.sLayout = l
		}
	} else {
		op, err := ac.operator(l)
		if err != nil {
			return ErrBadArg
		}
		if op != ac.built {
			ac.built = op
			ac.factorizations++
			rebuilt = true
		}
		if rebuilt {
			s.SetUserMatrix(aztec.NewCrsMatrixView(op))
		}
	}
	s.SetRecorder(ac.rec)
	s.SetPool(ac.workerPool())
	if ac.mf == nil {
		ac.recordFormat(ac.built)
	}

	return ac.solveEach(ac, solution, status, numLocalRow, statusLength)
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

// lisiOperator adapts the application's MatrixFree port to an
// aztec.Operator.
type lisiOperator struct {
	m  *aztec.Map
	mf MatrixFree
}

func (o *lisiOperator) RowMap() *aztec.Map { return o.m }
func (o *lisiOperator) Apply(y, x []float64) error {
	if code := o.mf.MatMult(IDMatrix, x, y, len(x)); code != OK {
		return Check(code)
	}
	return nil
}

func init() {
	Register(BackendInfo{
		Name:  "trilinos",
		Class: ClassAztecSolver,
		Kind:  "iterative (Krylov)",
		Doc:   "Trilinos-role `aztec` package: integer option / double parameter control surface behind the same port",
	}, func() SparseSolver { return NewAztecComponent() })
}
