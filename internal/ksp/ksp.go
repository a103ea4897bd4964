package ksp

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/par"
	"repro/internal/pmat"
	"repro/internal/telemetry"
)

// ConvergedReason explains why a solve stopped, following PETSc's
// KSPConvergedReason vocabulary (positive = converged, negative =
// diverged).
type ConvergedReason int

// Convergence / divergence reasons.
const (
	ConvergedRTol        ConvergedReason = 2
	ConvergedATol        ConvergedReason = 3
	ConvergedIts         ConvergedReason = 4 // richardson ran its fixed iterations
	DivergedNull         ConvergedReason = 0
	DivergedMaxIts       ConvergedReason = -3
	DivergedDTol         ConvergedReason = -4
	DivergedBreakdown    ConvergedReason = -5
	DivergedIndefinitePC ConvergedReason = -8
)

// Converged reports whether the reason indicates success.
func (r ConvergedReason) Converged() bool { return r > 0 }

// String describes the termination reason.
func (r ConvergedReason) String() string {
	switch r {
	case ConvergedRTol:
		return "converged: relative tolerance"
	case ConvergedATol:
		return "converged: absolute tolerance"
	case ConvergedIts:
		return "converged: iteration count reached"
	case DivergedNull:
		return "not yet solved"
	case DivergedMaxIts:
		return "diverged: maximum iterations"
	case DivergedDTol:
		return "diverged: divergence tolerance"
	case DivergedBreakdown:
		return "diverged: Krylov breakdown"
	case DivergedIndefinitePC:
		return "diverged: indefinite preconditioner"
	}
	return fmt.Sprintf("ConvergedReason(%d)", int(r))
}

// KSP method names (PETSc -ksp_type vocabulary).
const (
	TypeCG         = "cg"
	TypeBiCGStab   = "bcgs"
	TypeGMRES      = "gmres"
	TypeFGMRES     = "fgmres"
	TypeTFQMR      = "tfqmr"
	TypeRichardson = "richardson"
	TypeChebyshev  = "chebyshev"
)

// KSP is a Krylov solver context. Create with New, configure with the
// Set* methods, then call Solve; results are queried with Iterations,
// ResidualNorm and Reason. A KSP may be reused for repeated solves with
// the same or updated operators, matching the reuse scenarios in §5.2 of
// the paper.
type KSP struct {
	a  *Mat
	pc PC

	typ     string
	rtol    float64
	atol    float64
	dtol    float64
	maxIts  int
	restart int
	damping float64 // richardson

	its    int
	rnorm  float64
	rnorm0 float64 // ‖r₀‖ (GMRES: of the first restart), the rtol/dtol reference
	reason ConvergedReason

	// red performs every global reduction of the Krylov loops; ws is
	// the per-solver workspace reused across repeated solves (the
	// Session steady state); pcFor/pcObj record which (operator, PC)
	// pair the preconditioner was last set up for, so an unchanged
	// operator skips refactorization.
	red   *pmat.Reducer
	ws    pmat.Workspace
	pcFor *Mat
	pcObj PC

	rec *telemetry.Recorder
}

// SetPool attaches an intra-rank worker pool (nil restores the serial
// path): the reductions' local halves take its fixed-slot fold. The
// pool is caller-owned; call after SetOperators so the assembled
// operator's distributed product inherits it. Preconditioners never
// see it: a triangular sweep loses to the serial one at the level
// widths these factors have (docs/PERFORMANCE.md). Idempotent, safe to
// call every solve.
func (k *KSP) SetPool(p *par.Pool) {
	k.red.SetPool(p)
	if k.a != nil && k.a.pm != nil {
		k.a.pm.SetPool(p)
	}
}

// New creates a KSP with PETSc-like defaults: GMRES(30) with block-ILU
// preconditioning, rtol 1e-5, atol 1e-50, dtol 1e5, maxits 10000.
func New(c *comm.Comm) *KSP {
	return &KSP{
		red:     pmat.NewReducer(c),
		typ:     TypeGMRES,
		rtol:    1e-5,
		atol:    1e-50,
		dtol:    1e5,
		maxIts:  10000,
		restart: 30,
		damping: 1.0,
	}
}

// SetOperators sets the system operator (and uses it to build the
// preconditioner at the next Solve).
func (k *KSP) SetOperators(a *Mat) { k.a = a }

// SetType selects the Krylov method.
func (k *KSP) SetType(t string) error {
	switch t {
	case TypeCG, TypeBiCGStab, TypeGMRES, TypeFGMRES, TypeTFQMR, TypeRichardson, TypeChebyshev:
		k.typ = t
		return nil
	}
	return fmt.Errorf("ksp: unknown KSP type %q", t)
}

// SetTolerances sets the convergence controls; non-positive arguments
// keep the current value (as PETSC_DEFAULT does).
func (k *KSP) SetTolerances(rtol, atol, dtol float64, maxIts int) {
	if rtol > 0 {
		k.rtol = rtol
	}
	if atol > 0 {
		k.atol = atol
	}
	if dtol > 0 {
		k.dtol = dtol
	}
	if maxIts > 0 {
		k.maxIts = maxIts
	}
}

// SetRestart sets the GMRES restart length.
func (k *KSP) SetRestart(m int) error {
	if m < 1 {
		return fmt.Errorf("ksp: restart must be positive, got %d", m)
	}
	k.restart = m
	return nil
}

// SetDamping sets the Richardson damping factor.
func (k *KSP) SetDamping(s float64) error {
	if s <= 0 {
		return fmt.Errorf("ksp: damping must be positive, got %g", s)
	}
	k.damping = s
	return nil
}

// SetPC replaces the preconditioner object.
func (k *KSP) SetPC(pc PC) { k.pc = pc }

// SetPCType selects a preconditioner by name.
func (k *KSP) SetPCType(t string) error {
	pc, err := NewPC(t)
	if err != nil {
		return err
	}
	k.pc = pc
	return nil
}

// SetRecorder attaches a telemetry recorder: preconditioner setup is
// timed into PhasePrecond, the Krylov loop into PhaseIterate, and every
// iteration's residual norm lands in the residual trace. A nil recorder
// (the default) disables instrumentation at the cost of a nil check.
func (k *KSP) SetRecorder(r *telemetry.Recorder) { k.rec = r }

// Iterations returns the iteration count of the last solve.
func (k *KSP) Iterations() int { return k.its }

// ResidualNorm returns the final residual norm of the last solve.
func (k *KSP) ResidualNorm() float64 { return k.rnorm }

// Reason returns the termination reason of the last solve.
func (k *KSP) Reason() ConvergedReason { return k.reason }

// Solve solves A·x = b. b and x are this rank's conformal blocks; x is
// overwritten with the solution (collective). A non-nil error is returned
// for setup failures and for divergence.
func (k *KSP) Solve(b, x []float64) error {
	if k.a == nil {
		return fmt.Errorf("ksp: Solve called before SetOperators")
	}
	n := k.a.Layout().LocalN
	if len(b) != n || len(x) != n {
		return fmt.Errorf("ksp: Solve: local vectors have lengths %d/%d, want %d", len(b), len(x), n)
	}
	if k.pc == nil {
		k.pc = &pcBlockILU{name: PCBJacobi}
	}
	// A set-up failure must not leave the previous solve's outcome
	// behind for the caller to read.
	k.its, k.rnorm, k.reason = 0, 0, DivergedNull
	// Set up the preconditioner only when the (operator, PC) pair
	// changed. Operator identity is by pointer: Mat values are fixed at
	// construction, so a changed system always arrives as a new Mat.
	if k.pcFor != k.a || k.pcObj != k.pc {
		stopPC := k.rec.StartPhase(telemetry.PhasePrecond)
		err := k.pc.SetUp(k.a)
		stopPC()
		if err != nil {
			return err
		}
		k.pcFor, k.pcObj = k.a, k.pc
	}
	clear(x)

	defer k.rec.StartPhase(telemetry.PhaseIterate)()
	sys := (*krylovSystem)(k)
	switch k.typ {
	case TypeCG:
		k.ws.CG(k.red, sys, x, b)
	case TypeBiCGStab:
		k.ws.BiCGSTAB(k.red, sys, x, b)
	case TypeGMRES:
		k.ws.GMRES(k.red, sys, x, b, k.restart, false)
	case TypeFGMRES:
		k.ws.GMRES(k.red, sys, x, b, k.restart, true)
	case TypeChebyshev:
		emax := k.ws.MaxEig(k.red, sys, k.a.Layout())
		k.ws.Chebyshev(sys, x, b, emax)
	case TypeTFQMR:
		k.ws.TFQMR(k.red, sys, x, b)
	case TypeRichardson:
		k.ws.Richardson(sys, x, b, k.damping)
	default:
		return fmt.Errorf("ksp: unknown KSP type %q", k.typ)
	}
	if !k.reason.Converged() {
		return fmt.Errorf("ksp: solve diverged: %v (it %d, rnorm %.3e)", k.reason, k.its, k.rnorm)
	}
	return nil
}

// testConvergence updates state and returns true when iteration should
// stop. rnorm0 is the initial residual norm.
func (k *KSP) testConvergence(it int, rnorm, rnorm0 float64) bool {
	k.its = it
	k.rnorm = rnorm
	k.rec.Residual(it, rnorm)
	switch {
	case math.IsNaN(rnorm) || math.IsInf(rnorm, 0):
		// A NaN compares false against every tolerance below; without
		// this case a poisoned recurrence runs to maxIts.
		k.reason = DivergedBreakdown
	case rnorm <= k.atol:
		k.reason = ConvergedATol
	case rnorm <= k.rtol*rnorm0:
		k.reason = ConvergedRTol
	case rnorm >= k.dtol*rnorm0 && it > 0:
		k.reason = DivergedDTol
	case it >= k.maxIts:
		k.reason = DivergedMaxIts
	default:
		return false
	}
	return true
}

// krylovSystem is the KSP as the shared loops see it: the Krylov
// methods (pmat.KrylovSystem) and Richardson/Chebyshev
// (pmat.PolySystem). Every stop goes through testConvergence against
// rnorm0.
type krylovSystem KSP

func (k *krylovSystem) Apply(y, x []float64)        { k.a.Apply(y, x) }
func (k *krylovSystem) Precondition(z, r []float64) { k.pc.Apply(z, r) }

// Start takes ‖r₀‖ as the rtol/dtol reference; ‖b‖ plays no part.
func (k *krylovSystem) Start(rnorm, _ float64) bool {
	k.rnorm0 = rnorm
	return (*KSP)(k).testConvergence(0, rnorm, rnorm)
}

func (k *krylovSystem) Stop(it int, rnorm float64) bool {
	return (*KSP)(k).testConvergence(it, rnorm, k.rnorm0)
}

// Restart tests GMRES's recomputed residual, the first as Start, the
// rest as Stop.
func (k *krylovSystem) Restart(it int, beta, bnorm float64) bool {
	if it == 0 {
		return k.Start(beta, bnorm)
	}
	return k.Stop(it, beta)
}

// TrustEstimate is true: testConvergence reads the least-squares
// estimate as the residual norm, so a stop on it is final.
func (*krylovSystem) TrustEstimate() bool { return true }

// ResidualStop takes the norm of r; the start's is the rtol/dtol
// reference.
func (k *krylovSystem) ResidualStop(it int, r []float64) bool {
	rnorm := k.red.Norm2(r)
	if it == 0 {
		k.rnorm0 = rnorm
	}
	return (*KSP)(k).testConvergence(it, rnorm, k.rnorm0)
}

// LastUpdate is false: a solve stops on its residual alone.
func (*krylovSystem) LastUpdate(int) bool { return false }

// HalfStop ends BiCGSTAB on atol or rtol only; testConvergence then
// records the step.
func (k *krylovSystem) HalfStop(it int, snorm float64) bool {
	if snorm <= k.atol || snorm <= k.rtol*k.rnorm0 {
		(*KSP)(k).testConvergence(it, snorm, k.rnorm0)
		return true
	}
	return false
}

func (k *krylovSystem) SmallOmega(omega float64) bool { return math.Abs(omega) < 1e-300 }

// Breakdown leaves rnorm at the last tested norm.
func (k *krylovSystem) Breakdown(it int, _ float64, indefinite bool) {
	k.reason, k.its = DivergedBreakdown, it
	if indefinite {
		k.reason = DivergedIndefinitePC
	}
}
