package aztec

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/comm"
	"repro/internal/par"
	"repro/internal/pmat"
	"repro/internal/sparse"
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
	out   io.Writer // destination for AZOutput monitoring (default stdout)
	rec   *telemetry.Recorder

	// Steady-state reuse: the preconditioner (and row scaling) are cached
	// across solves and rebuilt only when the operator is re-set or the
	// option/parameter arrays change (precOpts/precParams hold the
	// snapshot they were built for); ws and bb are persistent scratch.
	precOpts   []int
	precParams []float64
	bb         []float64
	ws         azWorkspace

	// pool is the intra-rank worker pool (nil = legacy serial path):
	// local reduction halves route through its fixed-slot fold, the
	// distributed product of a CrsMatrix row-partitions across it, and
	// pool-aware preconditioners inherit it for level-scheduled sweeps.
	pool *par.Pool
}

// SetPool attaches an intra-rank worker pool (nil restores the serial
// path). The pool is caller-owned. Idempotent; call after the matrix is
// set so the distributed product and a cached preconditioner pick it up.
func (s *Solver) SetPool(p *par.Pool) {
	s.pool = p
	if cm, ok := s.rm.(*CrsMatrix); ok && cm != nil && cm.Dist() != nil {
		cm.Dist().SetPool(p)
	}
	if pa, ok := s.prec.(poolAware); ok {
		pa.setPool(p)
	}
}

// lDot and lNorm2 are the local halves of the global reductions: the
// pooled fixed-slot fold when a pool is attached (bitwise-identical
// for every worker count), exactly sparse.Dot / sparse.Norm2 without
// one. All fused* helpers funnel through them, preserving the audited
// rank-order fold.
func (s *Solver) lDot(x, y []float64) float64 {
	if s.pool != nil {
		return s.pool.Dot(x, y)
	}
	return sparse.Dot(x, y)
}

func (s *Solver) lNorm2(x []float64) float64 {
	if s.pool != nil {
		return s.pool.Norm2(x)
	}
	return sparse.Norm2(x)
}

// NewSolver creates a solver with default options and parameters.
func NewSolver(c *comm.Comm) *Solver {
	return &Solver{
		c:       c,
		options: DefaultOptions(),
		params:  DefaultParams(),
		status:  make([]float64, statusSize),
	}
}

// SetOutput redirects AZOutput iteration monitoring (default
// os.Stdout; only rank 0 prints, as AztecOO does).
func (s *Solver) SetOutput(w io.Writer) { s.out = w }

// SetRecorder attaches a telemetry recorder: preconditioner
// construction is timed into PhasePrecond, the iteration loop into
// PhaseIterate, and per-iteration residuals feed the trace. Nil (the
// default) disables instrumentation.
func (s *Solver) SetRecorder(r *telemetry.Recorder) { s.rec = r }

// monitor records the residual in the telemetry trace and prints it
// every options[AZOutput] iterations on rank 0.
func (s *Solver) monitor(it int, rnorm float64) {
	s.rec.Residual(it, rnorm)
	interval := s.options[AZOutput]
	if interval == 0 || s.c.Rank() != 0 || it%interval != 0 {
		return
	}
	w := s.out
	if w == nil {
		w = os.Stdout
	}
	fmt.Fprintf(w, "\t\titer: %5d\t\tresidual = %e\n", it, rnorm)
}

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

// SetOption sets one slot of the options array.
func (s *Solver) SetOption(idx, value int) error {
	if idx < 0 || idx >= optionsSize {
		return fmt.Errorf("aztec: option index %d out of range", idx)
	}
	s.options[idx] = value
	return nil
}

// SetParam sets one slot of the parameters array.
func (s *Solver) SetParam(idx int, value float64) error {
	if idx < 0 || idx >= paramsSize {
		return fmt.Errorf("aztec: param index %d out of range", idx)
	}
	s.params[idx] = value
	return nil
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
	// parameter arrays differ from the snapshot they were last built for.
	if s.prec == nil || !intsEqual(s.precOpts, s.options) || !floatsEqual(s.precParams, s.params) {
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
		if pa, ok := prec.(poolAware); ok {
			pa.setPool(s.pool)
		}
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

	var err error

	defer s.rec.StartPhase(telemetry.PhaseIterate)()
	switch s.options[AZSolver] {
	case AZCG:
		err = s.cg(x, bb)
	case AZGMRES:
		err = s.gmres(x, bb)
	case AZCGS:
		err = s.cgs(x, bb)
	case AZBiCGStab:
		err = s.bicgstab(x, bb)
	default:
		return fmt.Errorf("aztec: unknown solver %d", s.options[AZSolver])
	}
	if err != nil {
		return err
	}
	if why := int(s.status[AZWhy]); why != AZNormal {
		return fmt.Errorf("aztec: solve failed (why=%d, its=%d, r=%.3e)", why, s.NumIters(), s.status[AZr])
	}
	return nil
}

func (s *Solver) buildPreconditioner() (preconditioner, error) {
	if s.scale == nil {
		return newPreconditioner(s.op, s.rm, s.options, s.params)
	}
	// Preconditioner must see the scaled matrix.
	return newPreconditioner(&scaledOp{s.op, s.scale}, &scaledRowMatrix{s.rm, s.scale}, s.options, s.params)
}

// applyA computes y = A·x with row scaling folded in.
func (s *Solver) applyA(y, x []float64) {
	if err := s.op.Apply(y, x); err != nil {
		panic(fmt.Sprintf("aztec: operator apply failed: %v", err))
	}
	if s.scale != nil {
		for i := range y {
			y[i] *= s.scale[i]
		}
	}
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

// scaledOp wraps an operator with row scaling.
type scaledOp struct {
	op    Operator
	scale []float64
}

func (s *scaledOp) RowMap() *Map { return s.op.RowMap() }
func (s *scaledOp) Apply(y, x []float64) error {
	if err := s.op.Apply(y, x); err != nil {
		return err
	}
	for i := range y {
		y[i] *= s.scale[i]
	}
	return nil
}

// scaledRowMatrix wraps a RowMatrix with row scaling.
type scaledRowMatrix struct {
	rm    RowMatrix
	scale []float64
}

func (s *scaledRowMatrix) RowMap() *Map   { return s.rm.RowMap() }
func (s *scaledRowMatrix) NumMyRows() int { return s.rm.NumMyRows() }
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
func (s *Solver) finish(its int, rnorm, denom float64, why int) {
	s.status[AZIts] = float64(its)
	s.status[AZWhy] = float64(why)
	s.status[AZr] = rnorm
	if denom > 0 {
		s.status[AZScaledR] = rnorm / denom
	} else {
		s.status[AZScaledR] = rnorm
	}
}

// intsEqual / floatsEqual compare option/parameter snapshots without
// allocating (a NaN parameter never compares equal, which only costs a
// spurious rebuild).
func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lisi:ignore floateq exact snapshot identity is the point; a NaN param only costs a spurious rebuild
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- Krylov methods (left-preconditioned, aztec-style bookkeeping) ----

// localResidual computes r = b − A·x without any reduction (the norm is
// taken by the caller, fused with the other startup reductions).
func (s *Solver) localResidual(x, b, r []float64) {
	s.applyA(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
}

func (s *Solver) cg(x, b []float64) error {
	n := len(x)
	w := s.wsVecs(n, 4)
	r, z, p, q := w[0], w[1], w[2], w[3]
	s.localResidual(x, b, r)
	s.prec.apply(z, r)
	// One AllReduce covers the initial residual norm, the rhs norm for
	// the convergence denominator, and the first r·z.
	r0, bnorm, rz := s.fusedNorm2x2Dot(r, b, r, z)
	denom := s.convDenominator(r0, bnorm)
	tol := s.params[AZTol]
	if r0/denom <= tol {
		s.finish(0, r0, denom, AZNormal)
		return nil
	}
	copy(p, z)
	for it := 1; it <= s.options[AZMaxIter]; it++ {
		s.applyA(q, p)
		pq := pmat.Dot(s.c, p, q)
		if pq <= 0 {
			s.finish(it, pmat.Norm2(s.c, r), denom, AZBreakdown)
			return nil
		}
		alpha := rz / pq
		sparse.Axpy(alpha, p, x)
		sparse.Axpy(-alpha, q, r)
		// The preconditioner is applied before the convergence test so
		// the residual norm and r·z share one AllReduce (one extra local
		// PC apply on the final iteration, no value changes).
		s.prec.apply(z, r)
		rnorm, rzNew := s.fusedNormDot(r, z)
		s.monitor(it, rnorm)
		if rnorm/denom <= tol {
			s.finish(it, rnorm, denom, AZNormal)
			return nil
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	s.finish(s.options[AZMaxIter], pmat.Norm2(s.c, r), denom, AZMaxIts)
	return nil
}

func (s *Solver) gmres(x, b []float64) error {
	n := len(x)
	m := s.options[AZKspace]
	tol := s.params[AZTol]
	maxIter := s.options[AZMaxIter]

	ws := s.wsKrylov(n, m)
	v, h, g, cs, sn := ws.v, ws.h, ws.g, ws.cs, ws.sn // h[i*m+j]
	scratch := s.wsVecs(n, 2)
	w, t := scratch[0], scratch[1]

	r0 := -1.0
	var denom float64
	it := 0
	for {
		s.applyA(t, x)
		for i := range t {
			t[i] = b[i] - t[i]
		}
		s.prec.apply(w, t)
		var beta float64
		if r0 < 0 {
			// First restart: fuse the rhs norm for the convergence
			// denominator with the initial preconditioned residual norm.
			var bnorm float64
			beta, bnorm = s.fusedNorm2x2(w, b)
			r0 = beta
			denom = s.convDenominator(r0, bnorm)
		} else {
			beta = pmat.Norm2(s.c, w)
		}
		if beta/denom <= tol {
			s.finish(it, beta, denom, AZNormal)
			return nil
		}
		if it >= maxIter {
			s.finish(it, beta, denom, AZMaxIts)
			return nil
		}
		for i := range w {
			v[0][i] = w[i] / beta
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		j := 0
		for ; j < m && it < maxIter; j++ {
			it++
			s.applyA(t, v[j])
			s.prec.apply(w, t)
			for i := 0; i <= j; i++ {
				h[i*m+j] = pmat.Dot(s.c, w, v[i])
				sparse.Axpy(-h[i*m+j], v[i], w)
			}
			hj1 := pmat.Norm2(s.c, w)
			if hj1 > 0 {
				for i := range w {
					v[j+1][i] = w[i] / hj1
				}
			} else {
				// Breakdown: deterministic zero direction instead of
				// whatever a previous restart or solve left here.
				for i := range v[j+1] {
					v[j+1][i] = 0
				}
			}
			// Givens updates.
			for i := 0; i < j; i++ {
				a0 := h[i*m+j]
				h[i*m+j] = cs[i]*a0 + sn[i]*h[(i+1)*m+j]
				h[(i+1)*m+j] = -sn[i]*a0 + cs[i]*h[(i+1)*m+j]
			}
			rd := math.Hypot(h[j*m+j], hj1)
			if rd == 0 {
				cs[j], sn[j] = 1, 0
			} else {
				cs[j], sn[j] = h[j*m+j]/rd, hj1/rd
			}
			h[j*m+j] = rd
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]
			s.monitor(it, math.Abs(g[j+1]))
			if math.Abs(g[j+1])/denom <= tol {
				j++
				break
			}
		}
		// Back substitution and update.
		y := ws.y[:j]
		for i := j - 1; i >= 0; i-- {
			sum := g[i]
			for k2 := i + 1; k2 < j; k2++ {
				sum -= h[i*m+k2] * y[k2]
			}
			if h[i*m+i] != 0 {
				y[i] = sum / h[i*m+i]
			} else {
				y[i] = 0 // singular block: skip this direction
			}
		}
		for k2 := 0; k2 < j; k2++ {
			sparse.Axpy(y[k2], v[k2], x)
		}
	}
}

func (s *Solver) cgs(x, b []float64) error {
	// Sonneveld's conjugate gradient squared.
	n := len(x)
	ws := s.wsVecs(n, 9)
	r, rtld, p, q := ws[0], ws[1], ws[2], ws[3]
	u, uhat, vhat, qhat, t := ws[4], ws[5], ws[6], ws[7], ws[8]

	s.localResidual(x, b, r)
	copy(rtld, r)
	// One AllReduce covers the initial residual norm, the rhs norm, and
	// the first ρ = r̃·r; the tail of each iteration fuses the residual
	// norm with the next ρ the same way.
	r0, bnorm, rhoNext := s.fusedNorm2x2Dot(r, b, rtld, r)
	denom := s.convDenominator(r0, bnorm)
	tol := s.params[AZTol]
	if r0/denom <= tol {
		s.finish(0, r0, denom, AZNormal)
		return nil
	}
	var rho, rhoOld float64
	for it := 1; it <= s.options[AZMaxIter]; it++ {
		rho = rhoNext
		if rho == 0 {
			s.finish(it, pmat.Norm2(s.c, r), denom, AZBreakdown)
			return nil
		}
		if it == 1 {
			copy(u, r)
			copy(p, u)
		} else {
			beta := rho / rhoOld
			for i := range u {
				u[i] = r[i] + beta*q[i]
				p[i] = u[i] + beta*(q[i]+beta*p[i])
			}
		}
		s.prec.apply(uhat, p)
		s.applyA(vhat, uhat)
		sigma := pmat.Dot(s.c, rtld, vhat)
		if sigma == 0 {
			s.finish(it, pmat.Norm2(s.c, r), denom, AZBreakdown)
			return nil
		}
		alpha := rho / sigma
		for i := range q {
			q[i] = u[i] - alpha*vhat[i]
		}
		for i := range t {
			t[i] = u[i] + q[i]
		}
		s.prec.apply(qhat, t)
		sparse.Axpy(alpha, qhat, x)
		s.applyA(t, qhat)
		sparse.Axpy(-alpha, t, r)
		rhoOld = rho
		var rnorm float64
		rnorm, rhoNext = s.fusedNormDot(r, rtld)
		s.monitor(it, rnorm)
		if rnorm/denom <= tol {
			s.finish(it, rnorm, denom, AZNormal)
			return nil
		}
		if math.IsNaN(rnorm) || math.IsInf(rnorm, 0) {
			s.finish(it, rnorm, denom, AZBreakdown)
			return nil
		}
	}
	s.finish(s.options[AZMaxIter], pmat.Norm2(s.c, r), denom, AZMaxIts)
	return nil
}

func (s *Solver) bicgstab(x, b []float64) error {
	n := len(x)
	ws := s.wsVecs(n, 8)
	r, rtld, p, v := ws[0], ws[1], ws[2], ws[3]
	ss, t, phat, shat := ws[4], ws[5], ws[6], ws[7]

	s.localResidual(x, b, r)
	copy(rtld, r)
	// Fused startup: initial residual norm, rhs norm, and the first
	// ρ = r̃·r in one AllReduce; each iteration's tail fuses the residual
	// norm with the next ρ.
	r0, bnorm, rhoNext := s.fusedNorm2x2Dot(r, b, rtld, r)
	denom := s.convDenominator(r0, bnorm)
	tol := s.params[AZTol]
	if r0/denom <= tol {
		s.finish(0, r0, denom, AZNormal)
		return nil
	}
	rho, alpha, omega := 1.0, 1.0, 1.0
	for it := 1; it <= s.options[AZMaxIter]; it++ {
		rhoNew := rhoNext
		if rhoNew == 0 {
			s.finish(it, pmat.Norm2(s.c, r), denom, AZBreakdown)
			return nil
		}
		if it == 1 {
			copy(p, r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rhoNew
		s.prec.apply(phat, p)
		s.applyA(v, phat)
		d := pmat.Dot(s.c, rtld, v)
		if d == 0 {
			s.finish(it, pmat.Norm2(s.c, r), denom, AZBreakdown)
			return nil
		}
		alpha = rho / d
		for i := range ss {
			ss[i] = r[i] - alpha*v[i]
		}
		snorm := pmat.Norm2(s.c, ss)
		if snorm/denom <= tol {
			sparse.Axpy(alpha, phat, x)
			s.finish(it, snorm, denom, AZNormal)
			return nil
		}
		s.prec.apply(shat, ss)
		s.applyA(t, shat)
		tt, ts := s.fusedDot2(t, t, t, ss)
		if tt == 0 {
			s.finish(it, snorm, denom, AZBreakdown)
			return nil
		}
		omega = ts / tt
		if omega == 0 {
			s.finish(it, snorm, denom, AZBreakdown)
			return nil
		}
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
		for i := range r {
			r[i] = ss[i] - omega*t[i]
		}
		var rnorm float64
		rnorm, rhoNext = s.fusedNormDot(r, rtld)
		s.monitor(it, rnorm)
		if rnorm/denom <= tol {
			s.finish(it, rnorm, denom, AZNormal)
			return nil
		}
	}
	s.finish(s.options[AZMaxIter], pmat.Norm2(s.c, r), denom, AZMaxIts)
	return nil
}
