package core

import (
	"errors"
	"fmt"

	"repro/internal/mg"
	"repro/internal/sparse"
)

// FailReason is the normalized, backend-independent classification of a
// failed solve. Every component translates its own failure vocabulary —
// ksp's ConvergedReason codes, aztec's status[AZWhy], slu's singularity
// errors, mg's cycle divergence — into this one enum and reports it in
// status[StatusFailReason], so the Session layer can decide uniformly
// whether to fail over to another registry backend (the
// PETSc-reason-code model of PAPERS.md applied across the whole
// registry). Every backend starts from x = 0, so the same backend on
// the same system fails the same way again: a reason says what a
// different method might do, never what a rerun would.
type FailReason int

const (
	// FailNone: the solve did not fail.
	FailNone FailReason = iota
	// FailMaxIterations: the iteration budget ran out before the
	// tolerance was met. A larger budget or a different method may
	// converge.
	FailMaxIterations
	// FailBreakdown: a Krylov breakdown (zero inner product, indefinite
	// preconditioner application) stopped the method. Method-specific:
	// another method may solve the same system.
	FailBreakdown
	// FailDivergence: the residual grew past the divergence tolerance.
	FailDivergence
	// FailSingular: the matrix (or a preconditioner factor) is
	// structurally or numerically singular — zero pivots, empty
	// columns.
	FailSingular
	// FailUnsupported: the component cannot solve this problem shape at
	// all (e.g. geometric mg staged with a non-model operator).
	FailUnsupported
	// FailAborted: the solve was killed by cancellation, deadline, or
	// an injected fault; the world is poisoned.
	FailAborted
)

// String returns the snake_case reason name (used as a telemetry label).
func (r FailReason) String() string {
	switch r {
	case FailNone:
		return "none"
	case FailMaxIterations:
		return "max_iterations"
	case FailBreakdown:
		return "breakdown"
	case FailDivergence:
		return "divergence"
	case FailSingular:
		return "singular"
	case FailUnsupported:
		return "unsupported"
	case FailAborted:
		return "aborted"
	}
	return fmt.Sprintf("FailReason(%d)", int(r))
}

// FailoverEligible reports whether a different backend might succeed
// where this one failed: every method-specific failure qualifies; a
// user cancel or poisoned world (FailAborted) never does.
func (r FailReason) FailoverEligible() bool {
	switch r {
	case FailMaxIterations, FailBreakdown, FailDivergence, FailSingular, FailUnsupported:
		return true
	}
	return false
}

// failReasonFromStatus decodes the StatusFailReason slot.
func failReasonFromStatus(status []float64) FailReason {
	if len(status) <= StatusFailReason {
		return FailNone
	}
	r := FailReason(int(status[StatusFailReason]))
	if r < FailNone || r > FailAborted {
		return FailNone
	}
	return r
}

// classifySolveError maps a native solver error onto a FailReason by
// its sentinel: every singular matrix wraps sparse.ErrSingular, whatever
// the backend, and mg's two cycle failures have their own. Anything else
// is a breakdown.
func classifySolveError(err error) FailReason {
	switch {
	case err == nil:
		return FailNone
	case errors.Is(err, sparse.ErrSingular):
		return FailSingular
	case errors.Is(err, mg.ErrNoConvergence):
		return FailMaxIterations
	case errors.Is(err, mg.ErrDiverged):
		return FailDivergence
	}
	return FailBreakdown
}
