package aztec

import "fmt"

// Aztec drives its solver through an integer options array and a double
// parameters array, indexed by AZ_* constants — the same control surface
// AztecOO exposes. The LISI adapter translates its generic string
// parameters into these slots.

// Indices into the options array.
const (
	AZSolver  = iota // Krylov method (AZCG, AZGMRES, ...)
	AZPrecond        // preconditioner (AZNone, AZJacobi, ...)
	AZConv           // convergence criterion (AZr0, AZrhs, AZAnorm)
	AZMaxIter        // maximum iterations
	AZKspace         // GMRES restart length
	AZPolyOrd        // polynomial order / relaxation sweeps
	AZScaling        // row scaling (AZNoScaling, AZRowSum)
	AZOverlap        // subdomain overlap depth for AZDomDecomp
	optionsSize
)

// Indices into the params array.
const (
	AZTol      = iota // convergence tolerance
	AZDrop            // ILUT drop tolerance
	AZIlutFill        // ILUT fill ratio
	paramsSize
)

// Solver choices.
const (
	AZCG = iota
	AZGMRES
	AZCGS
	AZBiCGStab
)

// Preconditioner choices.
const (
	AZNone = iota
	AZJacobi
	AZNeumann
	AZLs
	AZSymGS
	AZDomDecomp
)

// Convergence criteria.
const (
	AZr0    = iota // ‖r‖ / ‖r0‖
	AZrhs          // ‖r‖ / ‖b‖
	AZAnorm        // ‖r‖ (absolute)
)

// Scaling choices.
const (
	AZNoScaling = iota
	AZRowSum
)

// Status array indices (AztecOO's status vector).
const (
	AZIts     = iota // iterations performed
	AZWhy            // termination reason (AZNormal, ...)
	AZr              // final residual norm used by the convergence test
	AZScaledR        // final scaled residual
	statusSize
)

// Termination reasons stored in status[AZWhy].
const (
	AZNormal    = iota // converged
	AZMaxIts           // ran out of iterations
	AZBreakdown        // Krylov breakdown, or a preconditioner setup failed on a non-singular matrix
	AZIllCond          // preconditioner setup met a singular matrix (sparse.ErrSingular)
)

// DefaultOptions returns the AztecOO-style defaults: GMRES(30) with no
// preconditioning, r0-relative convergence, 500 iterations.
func DefaultOptions() []int {
	o := make([]int, optionsSize)
	o[AZSolver] = AZGMRES
	o[AZPrecond] = AZNone
	o[AZConv] = AZr0
	o[AZMaxIter] = 500
	o[AZKspace] = 30
	o[AZPolyOrd] = 3
	o[AZScaling] = AZNoScaling
	return o
}

// DefaultParams returns the default parameter array: tol 1e-6, ILUT drop
// 0, fill 1.0.
func DefaultParams() []float64 {
	p := make([]float64, paramsSize)
	p[AZTol] = 1e-6
	p[AZDrop] = 0
	p[AZIlutFill] = 1.0
	return p
}

func validateOptions(o []int, p []float64) error {
	if len(o) < optionsSize {
		return fmt.Errorf("aztec: options array has %d entries, want %d", len(o), optionsSize)
	}
	if len(p) < paramsSize {
		return fmt.Errorf("aztec: params array has %d entries, want %d", len(p), paramsSize)
	}
	if o[AZSolver] < AZCG || o[AZSolver] > AZBiCGStab {
		return fmt.Errorf("aztec: unknown solver %d", o[AZSolver])
	}
	if o[AZPrecond] < AZNone || o[AZPrecond] > AZDomDecomp {
		return fmt.Errorf("aztec: unknown preconditioner %d", o[AZPrecond])
	}
	if o[AZConv] < AZr0 || o[AZConv] > AZAnorm {
		return fmt.Errorf("aztec: unknown convergence criterion %d", o[AZConv])
	}
	if o[AZMaxIter] <= 0 {
		return fmt.Errorf("aztec: max iterations must be positive, got %d", o[AZMaxIter])
	}
	if o[AZKspace] <= 0 {
		return fmt.Errorf("aztec: Krylov space size must be positive, got %d", o[AZKspace])
	}
	if o[AZPolyOrd] < 0 {
		return fmt.Errorf("aztec: polynomial order must be non-negative, got %d", o[AZPolyOrd])
	}
	if o[AZOverlap] < 0 {
		return fmt.Errorf("aztec: overlap must be non-negative, got %d", o[AZOverlap])
	}
	if p[AZTol] <= 0 {
		return fmt.Errorf("aztec: tolerance must be positive, got %g", p[AZTol])
	}
	return nil
}
