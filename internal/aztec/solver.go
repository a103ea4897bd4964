package aztec

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/par"
	"repro/internal/pmat"
	"repro/internal/telemetry"
)

// Solver is the AztecOO-role iterative solver driver. Configure it with
// a matrix (or matrix-free operator), option/parameter arrays, then call
// Iterate; results land in the status array.
type Solver struct {
	c       *comm.Comm
	op      Operator
	rm      RowMatrix // nil when only an Operator was supplied
	options []int
	params  []float64
	status  []float64

	prec  preconditioner
	scale []float64 // row scaling (nil when disabled)
	rec   *telemetry.Recorder

	// Steady-state reuse: the preconditioner (and row scaling) are cached
	// across solves and rebuilt only when the operator is re-set or the
	// option/parameter arrays change (precOpts/precParams hold the
	// snapshot they were built for); ws and bb are persistent scratch.
	precOpts   []int
	precParams []float64
	bb         []float64
	ws         pmat.Workspace

	// red performs every global reduction of the Krylov loops.
	red *pmat.Reducer

	denom float64 // the convergence denominator of the current solve
}

// SetPool attaches an intra-rank worker pool (nil restores the serial
// path): the reductions' local halves take its fixed-slot fold and the
// distributed product of a CrsMatrix row-partitions across it. The
// preconditioners' triangular sweeps stay serial. The pool is
// caller-owned. Idempotent; call after the matrix is set.
func (s *Solver) SetPool(p *par.Pool) {
	s.red.SetPool(p)
	if cm, ok := s.rm.(*CrsMatrix); ok && cm != nil && cm.Dist() != nil {
		cm.Dist().SetPool(p)
	}
}

// NewSolver creates a solver with default options and parameters.
func NewSolver(c *comm.Comm) *Solver {
	return &Solver{
		c:       c,
		red:     pmat.NewReducer(c),
		options: DefaultOptions(),
		params:  DefaultParams(),
		status:  make([]float64, statusSize),
	}
}

// SetRecorder attaches a telemetry recorder: preconditioner
// construction is timed into PhasePrecond, the iteration loop into
// PhaseIterate, and per-iteration residuals feed the trace. Nil (the
// default) disables instrumentation.
func (s *Solver) SetRecorder(r *telemetry.Recorder) { s.rec = r }

// SetUserMatrix supplies an assembled (or row-accessible) matrix; all
// preconditioners become available.
func (s *Solver) SetUserMatrix(m RowMatrix) {
	s.op = m
	s.rm = m
	s.prec = nil // new operator: drop the cached preconditioner
}

// SetUserOperator supplies a matrix-free operator; only AZNone
// preconditioning is possible.
func (s *Solver) SetUserOperator(op Operator) {
	s.op = op
	s.rm = nil
	s.prec = nil // new operator: drop the cached preconditioner
}

// Options returns the live options array (mutable, Aztec style).
func (s *Solver) Options() []int { return s.options }

// Params returns the live parameters array (mutable, Aztec style).
func (s *Solver) Params() []float64 { return s.params }

// Status returns the status array filled by the last Iterate.
func (s *Solver) Status() []float64 { return s.status }

// NumIters returns the iteration count of the last solve.
func (s *Solver) NumIters() int { return int(s.status[AZIts]) }

// Iterate solves A·x = b with at most maxIter iterations to tolerance
// tol (these override the corresponding option/param slots, matching
// AztecOO::Iterate). x carries the initial guess in and solution out.
func (s *Solver) Iterate(x, b []float64, maxIter int, tol float64) error {
	s.options[AZMaxIter] = maxIter
	s.params[AZTol] = tol
	return s.Solve(x, b)
}

// Solve runs the configured method on A·x = b (collective).
func (s *Solver) Solve(x, b []float64) error {
	if s.op == nil {
		return fmt.Errorf("aztec: Solve called before SetUserMatrix/SetUserOperator")
	}
	if err := validateOptions(s.options, s.params); err != nil {
		return err
	}
	n := s.op.RowMap().NumMyElements()
	if len(x) != n || len(b) != n {
		return fmt.Errorf("aztec: Solve: local vectors have lengths %d/%d, want %d", len(x), len(b), n)
	}
	for i := range s.status {
		s.status[i] = 0
	}

	// Row scaling ((S·A)x = S·b) and the preconditioner are rebuilt only
	// when the operator was re-set (prec dropped) or when the option or
	// parameter arrays differ from the snapshot they were last built for
	// (a NaN parameter never compares equal, which only costs a spurious
	// rebuild).
	if s.prec == nil || !slices.Equal(s.precOpts, s.options) || !slices.Equal(s.precParams, s.params) {
		if s.options[AZScaling] == AZRowSum {
			if s.rm == nil {
				return fmt.Errorf("aztec: AZRowSum scaling requires a RowMatrix")
			}
			scale, err := rowSumScale(s.rm)
			if err != nil {
				return err
			}
			s.scale = scale
		} else {
			s.scale = nil
		}
		stopPC := s.rec.StartPhase(telemetry.PhasePrecond)
		prec, err := s.buildPreconditioner()
		stopPC()
		if err != nil {
			s.prec = nil
			s.status[AZWhy] = AZIllCond
			if errors.Is(err, ErrILUTNonFinite) {
				s.status[AZWhy] = AZBreakdown
			}
			return err
		}
		s.prec = prec
		s.precOpts = append(s.precOpts[:0], s.options...)
		s.precParams = append(s.precParams[:0], s.params...)
	}
	bb := b
	if s.scale != nil {
		if cap(s.bb) < n {
			s.bb = make([]float64, n)
		}
		bb = s.bb[:n]
		for i := range bb {
			bb[i] = b[i] * s.scale[i]
		}
	}

	defer s.rec.StartPhase(telemetry.PhaseIterate)()
	sys := (*krylovSystem)(s)
	switch s.options[AZSolver] {
	case AZCG:
		s.ws.CG(s.red, sys, x, bb)
	case AZGMRES:
		s.ws.GMRES(s.red, sys, x, bb, s.options[AZKspace], false)
	case AZCGS:
		s.ws.CGS(s.red, sys, x, bb)
	case AZBiCGStab:
		s.ws.BiCGSTAB(s.red, sys, x, bb)
	default:
		return fmt.Errorf("aztec: unknown solver %d", s.options[AZSolver])
	}
	if why := int(s.status[AZWhy]); why != AZNormal {
		return fmt.Errorf("aztec: solve failed (why=%d, its=%d, r=%.3e)", why, s.NumIters(), s.status[AZr])
	}
	return nil
}

func (s *Solver) buildPreconditioner() (preconditioner, error) {
	if s.scale == nil {
		return newPreconditioner(s.rm, s.options, s.params)
	}
	// Preconditioner must see the scaled matrix.
	return newPreconditioner(&scaledRowMatrix{s.rm, s.scale}, s.options, s.params)
}

// convDenominator returns the denominator of the convergence test.
func (s *Solver) convDenominator(r0norm, bnorm float64) float64 {
	switch s.options[AZConv] {
	case AZrhs:
		if bnorm > 0 {
			return bnorm
		}
		return 1
	case AZAnorm:
		return 1
	default: // AZr0
		if r0norm > 0 {
			return r0norm
		}
		return 1
	}
}

func rowSumScale(rm RowMatrix) ([]float64, error) {
	m := rm.RowMap()
	n := m.NumMyElements()
	scale := make([]float64, n)
	for lr := 0; lr < n; lr++ {
		_, vals, err := rm.ExtractGlobalRowCopy(m.MinMyGID() + lr)
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, v := range vals {
			sum += math.Abs(v)
		}
		if sum == 0 {
			return nil, fmt.Errorf("aztec: AZRowSum: row %d has zero sum", m.MinMyGID()+lr)
		}
		scale[lr] = 1 / sum
	}
	return scale, nil
}

// scaledRowMatrix wraps a RowMatrix with row scaling.
type scaledRowMatrix struct {
	rm    RowMatrix
	scale []float64
}

func (s *scaledRowMatrix) RowMap() *Map { return s.rm.RowMap() }
func (s *scaledRowMatrix) Apply(y, x []float64) error {
	if err := s.rm.Apply(y, x); err != nil {
		return err
	}
	for i := range y {
		y[i] *= s.scale[i]
	}
	return nil
}
func (s *scaledRowMatrix) ExtractGlobalRowCopy(g int) ([]int, []float64, error) {
	cols, vals, err := s.rm.ExtractGlobalRowCopy(g)
	if err != nil {
		return nil, nil, err
	}
	f := s.scale[g-s.rm.RowMap().MinMyGID()]
	for i := range vals {
		vals[i] *= f
	}
	return cols, vals, nil
}
func (s *scaledRowMatrix) ExtractDiagonalCopy() ([]float64, error) {
	d, err := s.rm.ExtractDiagonalCopy()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(d))
	for i := range d {
		out[i] = d[i] * s.scale[i]
	}
	return out, nil
}

// finish records the outcome in the status array.
func (s *Solver) finish(its int, rnorm float64, why int) {
	s.status[AZIts] = float64(its)
	s.status[AZWhy] = float64(why)
	s.status[AZr] = rnorm
	if s.denom > 0 {
		s.status[AZScaledR] = rnorm / s.denom
	} else {
		s.status[AZScaledR] = rnorm
	}
}

// stopped tests a residual norm and, if the solve stops on it, records
// iteration it's outcome: AZNormal when rnorm/denom meets the tolerance,
// AZBreakdown when rnorm is not finite (a NaN compares false against
// every tolerance, so a poisoned recurrence would otherwise run to
// AZMaxIter).
func (s *Solver) stopped(it int, rnorm float64) bool {
	switch {
	case math.IsNaN(rnorm) || math.IsInf(rnorm, 0):
		s.finish(it, rnorm, AZBreakdown)
	case rnorm/s.denom <= s.params[AZTol]:
		s.finish(it, rnorm, AZNormal)
	default:
		return false
	}
	return true
}

// ended is stopped, or else AZMaxIts once iteration it reaches
// AZMaxIter.
func (s *Solver) ended(it int, rnorm float64) bool {
	if s.stopped(it, rnorm) {
		return true
	}
	if it < s.options[AZMaxIter] {
		return false
	}
	s.finish(it, rnorm, AZMaxIts)
	return true
}

// krylovSystem is the Solver as the shared Krylov loops see it. Every
// exit lands in the status array through finish.
type krylovSystem Solver

// Apply computes y = A·x with row scaling folded in.
func (s *krylovSystem) Apply(y, x []float64) {
	if err := s.op.Apply(y, x); err != nil {
		panic(fmt.Sprintf("aztec: operator apply failed: %v", err))
	}
	if s.scale != nil {
		for i := range y {
			y[i] *= s.scale[i]
		}
	}
}

func (s *krylovSystem) Precondition(z, r []float64) { s.prec.apply(z, r) }

// Start builds the convergence denominator from ‖r₀‖ and ‖b‖.
func (s *krylovSystem) Start(rnorm, bnorm float64) bool {
	s.denom = (*Solver)(s).convDenominator(rnorm, bnorm)
	return (*Solver)(s).stopped(0, rnorm)
}

// Stop records the residual, then ends on the test or at AZMaxIter.
func (s *krylovSystem) Stop(it int, rnorm float64) bool {
	s.rec.Residual(it, rnorm)
	return (*Solver)(s).ended(it, rnorm)
}

func (s *krylovSystem) HalfStop(it int, snorm float64) bool {
	return (*Solver)(s).stopped(it, snorm)
}

func (s *krylovSystem) SmallOmega(omega float64) bool { return omega == 0 }

func (s *krylovSystem) Breakdown(it int, rnorm float64, _ bool) {
	(*Solver)(s).finish(it, rnorm, AZBreakdown)
}

// Restart builds the convergence denominator at the first restart,
// then ends on the test or at AZMaxIter; it records no residual.
func (s *krylovSystem) Restart(it int, beta, bnorm float64) bool {
	if it == 0 {
		s.denom = (*Solver)(s).convDenominator(beta, bnorm)
	}
	return (*Solver)(s).ended(it, beta)
}

// TrustEstimate is false: a GMRES cycle that stopped on its estimate
// hands the decision to the restart's recomputed residual, whose
// finish writes last.
func (*krylovSystem) TrustEstimate() bool { return false }
