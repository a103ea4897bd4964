package core

import (
	"strconv"

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
	return &KSPComponent{baseAdapter: newBaseAdapter("lisi.solver.ksp", checkKSPParam, true)}
}

// SetServices implements cca.Component.
func (kc *KSPComponent) SetServices(svc cca.Services) error {
	return kc.baseAdapter.setServices(svc, kc)
}

// kspSolverNames maps LISI "solver" values to ksp types.
var kspSolverNames = map[string]string{
	"cg":         ksp.TypeCG,
	"gmres":      ksp.TypeGMRES,
	"fgmres":     ksp.TypeFGMRES,
	"bicgstab":   ksp.TypeBiCGStab,
	"tfqmr":      ksp.TypeTFQMR,
	"richardson": ksp.TypeRichardson,
	"chebyshev":  ksp.TypeChebyshev,
}

// kspPCNames maps LISI "preconditioner" values to ksp PC types.
var kspPCNames = map[string]string{
	"none":    ksp.PCNone,
	"jacobi":  ksp.PCJacobi,
	"bjacobi": ksp.PCBJacobi,
	"sor":     ksp.PCSOR,
	"ssor":    ksp.PCSSOR,
	"ilu":     ksp.PCILU,
}

// checkKSPParam validates a parameter of the ksp vocabulary (§6.5).
func checkKSPParam(key, value string) int {
	switch key {
	case "solver":
		if _, ok := kspSolverNames[value]; !ok {
			return ErrBadArg
		}
	case "preconditioner":
		if _, ok := kspPCNames[value]; !ok {
			return ErrBadArg
		}
	case "tol", "atol", "damping":
		if v, ok := floatParam(value); !ok || v <= 0 {
			return ErrBadArg
		}
	case "maxits", "restart":
		if v, err := strconv.Atoi(value); err != nil || v < 1 {
			return ErrBadArg
		}
	case "matfree_pc":
		if _, err := strconv.ParseBool(value); err != nil {
			return ErrBadArg
		}
	default:
		return ErrUnknownKey
	}
	return OK
}

// GetAll reports the configuration (§7.2).
func (kc *KSPComponent) GetAll() string {
	return kc.getAll(map[string]string{"backend": "ksp (PETSc-role)"})
}

// kspOption is the translation table (paper §6.5) from the LISI parameter
// vocabulary onto ksp's option database: the option each key sets and,
// where the values are names, their translation too. checkKSPParam has
// validated every stored value against the same vocabulary.
var kspOption = map[string]struct {
	option string
	values map[string]string
}{
	"solver":         {"ksp_type", kspSolverNames},
	"preconditioner": {"pc_type", kspPCNames},
	"tol":            {"ksp_rtol", nil},
	"atol":           {"ksp_atol", nil},
	"maxits":         {"ksp_max_it", nil},
	"restart":        {"ksp_gmres_restart", nil},
	"damping":        {"ksp_richardson_scale", nil},
}

// configure builds the KSP from the parameter store (a solveHooks hook).
func (kc *KSPComponent) configure(op staged) int {
	k := ksp.New(kc.c)
	for key, to := range kspOption {
		value, ok := kc.params[key]
		if !ok {
			continue
		}
		if to.values != nil {
			value = to.values[value]
		}
		if err := k.SetOption(to.option, value); err != nil {
			return ErrBadArg
		}
	}
	if op.shell != nil {
		// Matrix-free: no assembled diagonal block exists. Use the
		// application's preconditioner callback when offered, else none.
		if use, _ := strconv.ParseBool(kc.params["matfree_pc"]); use {
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
func (p *matrixFreePC) Apply(z, r []float64) {
	if code := p.mf.MatMult(IDPreconditioner, r, z, len(r)); code != OK {
		panic(Check(code))
	}
}

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
		Name:  "petsc",
		Class: ClassKSPSolver,
		Kind:  "iterative (Krylov)",
		Doc:   "PETSc-role `ksp` package: CG, GMRES, BiCGStab and friends with Jacobi/SOR/ILU-class preconditioners",
	}, func() SparseSolver { return NewKSPComponent() })
}
