package core

import (
	"repro/internal/cca"
	"repro/internal/ksp"
	"repro/internal/pmat"
)

// KSPComponent is the LISI solver component backed by the PETSc-role ksp
// package. Its translation table maps the generic LISI parameter
// vocabulary onto ksp's option database, the same adaptation the paper's
// PETSc component performs.
type KSPComponent struct {
	baseAdapter

	// mat wraps the slot's operator or shell, and k is the configured
	// KSP; the skeleton rebuilds each only when its key changed, so the
	// solve workspaces and preconditioner setup survive the steady state.
	mat *ksp.Mat
	k   *ksp.KSP
}

var _ SparseSolver = (*KSPComponent)(nil)
var _ cca.Component = (*KSPComponent)(nil)

// NewKSPComponent returns an unconfigured component (CCA class
// ClassKSPSolver).
func NewKSPComponent() *KSPComponent {
	return &KSPComponent{baseAdapter: newBaseAdapter("lisi.solver.ksp", kspParams, true)}
}

// SetServices implements cca.Component.
func (kc *KSPComponent) SetServices(svc cca.Services) error {
	return kc.baseAdapter.setServices(svc, kc)
}

// kspParams is the ksp vocabulary: each key's target is the option of
// ksp's database that configure sets (paper §6.5), with the value
// given or, for a name, ksp's own name for it.
var kspParams = []Param{
	{Key: "solver", Kind: ParamEnum, Names: []string{"cg", "gmres", "fgmres", "bicgstab", "tfqmr", "richardson", "chebyshev"},
		opts: []string{ksp.TypeCG, ksp.TypeGMRES, ksp.TypeFGMRES, ksp.TypeBiCGStab, ksp.TypeTFQMR, ksp.TypeRichardson, ksp.TypeChebyshev},
		to:   "ksp_type", Doc: "Krylov method"},
	{Key: "preconditioner", Kind: ParamEnum, Names: []string{"none", "jacobi", "bjacobi", "sor", "ssor", "ilu"},
		opts: []string{ksp.PCNone, ksp.PCJacobi, ksp.PCBJacobi, ksp.PCSOR, ksp.PCSSOR, ksp.PCILU},
		to:   "pc_type", Doc: "preconditioner (none on a matrix-free solve)"},
	{Key: "tol", Kind: ParamFloat, Bounds: positive, to: "ksp_rtol", Doc: "relative residual tolerance"},
	{Key: "atol", Kind: ParamFloat, Bounds: positive, to: "ksp_atol", Doc: "absolute residual tolerance"},
	{Key: "maxits", Kind: ParamInt, Bounds: atLeast1, to: "ksp_max_it", Doc: "iteration limit"},
	{Key: "restart", Kind: ParamInt, Bounds: atLeast1, to: "ksp_gmres_restart", Doc: "GMRES restart length"},
	{Key: "damping", Kind: ParamFloat, Bounds: positive, to: "ksp_richardson_scale", Doc: "Richardson damping factor"},
	{Key: "matfree_pc", Kind: ParamBool, Doc: "a matrix-free solve preconditions with the port's `IDPreconditioner` product"},
	workersParam,
}

// GetAll reports the configuration (§7.2).
func (kc *KSPComponent) GetAll() string {
	return kc.getAll(map[string]string{"backend": "ksp (PETSc-role)"})
}

// configure builds the KSP from the parameter store (a solveHooks hook).
func (kc *KSPComponent) configure(op staged) int {
	k := ksp.New(kc.c)
	code, portPC := OK, false
	kc.each(func(p *Param, v paramVal) {
		switch {
		case p.to != "":
			if k.SetOption(p.to, v.s) != nil {
				code = ErrBadArg
			}
		case p.Key == "matfree_pc":
			portPC = v.i == 1
		}
	})
	if code != OK {
		return code
	}
	if op.shell != nil {
		// Matrix-free: no assembled diagonal block exists. Use the
		// application's preconditioner callback when offered, else none.
		if portPC {
			k.SetPC(&matrixFreePC{mf: op.shell.mf})
		} else if err := k.SetOption("pc_type", ksp.PCNone); err != nil {
			return ErrBadArg
		}
	}
	kc.k = k
	return OK
}

// rebuild wraps the slot's operator, or its shell, as the KSP's matrix.
func (kc *KSPComponent) rebuild(op staged) (int, FailReason) {
	if op.shell != nil {
		kc.mat = ksp.NewShellMat(op.shell.l, op.shell.mul)
	} else {
		kc.mat = ksp.NewMat(op.mat)
	}
	return OK, FailNone
}

// attach hands the KSP its matrix, the recorder and the worker pool.
func (kc *KSPComponent) attach(op staged) *pmat.Mat {
	kc.k.SetOperators(kc.mat)
	kc.k.SetRecorder(kc.rec)
	kc.k.SetPool(kc.workerPool())
	return op.mat
}

// matrixFreePC adapts the application's MatrixFree preconditioner
// callback to a ksp.PC.
type matrixFreePC struct {
	mf MatrixFree
}

func (p *matrixFreePC) SetUp(*ksp.Mat) error { return nil }
func (p *matrixFreePC) Apply(z, r []float64) { portProduct(p.mf, IDPreconditioner, z, r) }

// Solve implements the LISI solve (§7.2) on the ksp backend.
func (kc *KSPComponent) Solve(solution []float64, status []float64, numLocalRow, statusLength int) int {
	return kc.solve(kc, solution, status, numLocalRow, statusLength)
}

// solveOne runs the configured KSP on one right-hand side.
func (kc *KSPComponent) solveOne(x, b []float64) (int, float64, FailReason) {
	if err := kc.k.Solve(b, x); err != nil {
		return kc.k.Iterations(), kc.k.ResidualNorm(), kc.classifyFailure(err)
	}
	return kc.k.Iterations(), kc.k.ResidualNorm(), FailNone
}

// classifyFailure normalizes ksp's PETSc-style ConvergedReason codes
// (and its setup errors, e.g. ILU zero pivots) into a FailReason.
func (kc *KSPComponent) classifyFailure(err error) FailReason {
	switch kc.k.Reason() {
	case ksp.DivergedMaxIts:
		return FailMaxIterations
	case ksp.DivergedBreakdown, ksp.DivergedIndefinitePC:
		return FailBreakdown
	case ksp.DivergedDTol:
		return FailDivergence
	}
	return classifySolveError(err)
}

func init() {
	Register(BackendInfo{
		Name:   "petsc",
		Class:  ClassKSPSolver,
		Kind:   "iterative (Krylov)",
		Doc:    "PETSc-role `ksp` package: CG, GMRES, BiCGStab and friends with Jacobi/SOR/ILU-class preconditioners",
		Params: kspParams,
	}, func() SparseSolver { return NewKSPComponent() })
}
