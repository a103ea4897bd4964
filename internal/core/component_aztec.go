package core

import (
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
	return &AztecComponent{baseAdapter: newBaseAdapter("lisi.solver.aztec", aztecParams, true)}
}

// SetServices implements cca.Component.
func (ac *AztecComponent) SetServices(svc cca.Services) error {
	return ac.baseAdapter.setServices(svc, ac)
}

// aztecParams is the aztec vocabulary: each key's target is a slot of
// Aztec's integer options (enum and int keys) or double params (float
// keys), filled by configure.
var aztecParams = []Param{
	{Key: "solver", Kind: ParamEnum, Names: []string{"cg", "gmres", "cgs", "bicgstab"},
		vals: []int{aztec.AZCG, aztec.AZGMRES, aztec.AZCGS, aztec.AZBiCGStab},
		to:   "AZ_solver", az: aztec.AZSolver, Doc: "Krylov method"},
	{Key: "preconditioner", Kind: ParamEnum, Names: []string{"none", "jacobi", "neumann", "ls", "symgs", "domdecomp", "ilut", "ilu"},
		vals: []int{aztec.AZNone, aztec.AZJacobi, aztec.AZNeumann, aztec.AZLs, aztec.AZSymGS, aztec.AZDomDecomp, aztec.AZDomDecomp, aztec.AZDomDecomp},
		to:   "AZ_precond", az: aztec.AZPrecond, Doc: "preconditioner (default `domdecomp`, ILUT on each subdomain; none on a matrix-free solve)"},
	{Key: "scaling", Kind: ParamEnum, Names: []string{"none", "rowsum"}, vals: []int{aztec.AZNoScaling, aztec.AZRowSum},
		to: "AZ_scaling", az: aztec.AZScaling, Doc: "row scaling"},
	{Key: "conv", Kind: ParamEnum, Names: []string{"r0", "rhs", "anorm"}, vals: []int{aztec.AZr0, aztec.AZrhs, aztec.AZAnorm},
		to: "AZ_conv", az: aztec.AZConv, Doc: "residual the tolerance is relative to"},
	{Key: "tol", Kind: ParamFloat, Bounds: positive, to: "AZ_tol", az: aztec.AZTol, Doc: "convergence tolerance"},
	{Key: "drop_tol", Kind: ParamFloat, Bounds: nonNeg, to: "AZ_drop", az: aztec.AZDrop, Doc: "ILUT drop tolerance"},
	{Key: "fill", Kind: ParamFloat, Bounds: positive, to: "AZ_ilut_fill", az: aztec.AZIlutFill, Doc: "ILUT fill ratio"},
	{Key: "maxits", Kind: ParamInt, Bounds: atLeast1, to: "AZ_max_iter", az: aztec.AZMaxIter, Doc: "iteration limit (default 10000)"},
	{Key: "restart", Kind: ParamInt, Bounds: atLeast1, to: "AZ_kspace", az: aztec.AZKspace, Doc: "GMRES restart length"},
	{Key: "poly_ord", Kind: ParamInt, Bounds: nonNeg, to: "AZ_poly_ord", az: aztec.AZPolyOrd, Doc: "polynomial order / relaxation sweeps"},
	{Key: "overlap", Kind: ParamInt, Bounds: nonNeg, to: "AZ_overlap", az: aztec.AZOverlap, Doc: "subdomain overlap depth of `domdecomp`"},
	workersParam,
}

// GetAll reports the configuration (§7.2).
func (ac *AztecComponent) GetAll() string {
	return ac.getAll(map[string]string{"backend": "aztec (Trilinos-role)"})
}

// configure builds the solver and fills its AZ_* arrays from the LISI
// parameter store (a solveHooks hook); a shell takes no preconditioner.
func (ac *AztecComponent) configure(op staged) int {
	s := aztec.NewSolver(ac.c)
	o, pr := s.Options(), s.Params()
	// The port's own defaults: ILUT on each subdomain, 10000 iterations.
	o[aztec.AZPrecond] = aztec.AZDomDecomp
	o[aztec.AZMaxIter] = 10000
	ac.each(func(p *Param, v paramVal) {
		if p.Kind == ParamFloat {
			pr[p.az] = v.f
		} else {
			o[p.az] = v.i
		}
	})
	if op.shell != nil {
		o[aztec.AZPrecond] = aztec.AZNone
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
// codes (and set-up errors such as a zero row sum) into a FailReason.
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
		Name:   "trilinos",
		Class:  ClassAztecSolver,
		Kind:   "iterative (Krylov)",
		Doc:    "Trilinos-role `aztec` package: integer option / double parameter control surface behind the same port",
		Params: aztecParams,
	}, func() SparseSolver { return NewAztecComponent() })
}
