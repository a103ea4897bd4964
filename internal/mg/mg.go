// Package mg implements the multilevel extension the paper defers to
// future work (§5.2 use case e, §9): a distributed multigrid V-cycle on
// the operator of an n×n grid, whatever its entries. It demonstrates the
// recursion pattern LISI anticipates — a multilevel solver built *on top
// of* the interface, with the coarsest-level solve delegated to a LISI
// SparseSolver through a callback so each level's solve re-enters the
// interface.
//
// The hierarchy coarsens n → (n−1)/2 (fine grids of size 2^k − 1 coarsen
// all the way down), with damped-Jacobi smoothing, full-weighting
// restriction and bilinear prolongation as distributed rectangular
// operators, and Galerkin coarse operators R·A·P.
package mg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/par"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// CoarseSolve solves the (small, gathered) coarsest system on every rank
// and returns the full solution vector. The core package supplies a
// closure that drives a LISI SparseSolver component, which is the
// paper's "use LISI on each level" recursion.
type CoarseSolve func(a *sparse.CSR, b []float64) ([]float64, error)

// Options tune the V-cycle.
type Options struct {
	// Nu1, Nu2 are pre-/post-smoothing sweep counts (default 2).
	Nu1, Nu2 int
	// Omega is the Jacobi damping factor (default 0.8) on a weakly
	// diagonally dominant level; newLevel lowers it on a level that is not.
	Omega float64
	// MaxCycles bounds the V-cycle count (default 50).
	MaxCycles int
	// Tol is the relative residual tolerance (default 1e-8).
	Tol float64
	// CoarsestN stops coarsening when the grid is this size or smaller
	// (default 3).
	CoarsestN int
	// Gamma is the cycle index: 1 is a V-cycle (default), 2 a W-cycle
	// (each level recurses twice into the next coarser level).
	Gamma int
	// Coarse solves the coarsest gathered system; required.
	Coarse CoarseSolve
}

func (o *Options) setDefaults() {
	if o.Nu1 == 0 {
		o.Nu1 = 2
	}
	if o.Nu2 == 0 {
		o.Nu2 = 2
	}
	if o.Omega == 0 {
		o.Omega = 0.8
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 50
	}
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.CoarsestN == 0 {
		o.CoarsestN = 3
	}
	if o.Gamma == 0 {
		o.Gamma = 1
	}
}

// level holds one grid's distributed operator and transfer operators.
type level struct {
	layout  *pmat.Layout
	a       *pmat.Mat
	invDiag []float64
	omega   float64 // this level's Jacobi damping (see newLevel)
	// restrict maps this level's residual to the next coarser level
	// (nil on the coarsest); prolong maps coarse corrections up.
	restrict *pmat.Mat
	prolong  *pmat.Mat
	// scratch vectors, local lengths.
	r, z []float64
	// bc/xc hold the restricted rhs and coarse correction for the next
	// coarser level (nil on the coarsest); bGlobal is the coarsest
	// level's persistent AllGather buffer. All are sized at setup so the
	// cycling loop never allocates.
	bc, xc  []float64
	bGlobal []float64
}

// Solver is a ready multigrid hierarchy for one problem instance.
type Solver struct {
	c       *comm.Comm
	opts    Options
	levels  []*level
	coarseA *sparse.CSR // gathered coarsest operator (every rank)
	cycles  int
	rnorm   float64
	rec     *telemetry.Recorder
	pool    *par.Pool
	jac     jacobiTask
}

// SetPool attaches an intra-rank worker pool to every level's operator
// applies (fine and transfer operators) and to the damped-Jacobi
// smoother update. The update is element-wise, so a static partition is
// bitwise-neutral: results are identical for any worker count.
// Idempotent and cheap, so callers may invoke it per solve.
func (s *Solver) SetPool(p *par.Pool) {
	s.pool = p
	for _, lvl := range s.levels {
		lvl.a.SetPool(p)
		if lvl.restrict != nil {
			lvl.restrict.SetPool(p)
		}
		if lvl.prolong != nil {
			lvl.prolong.SetPool(p)
		}
	}
}

// jacobiTask is one damped-Jacobi update x ← x + ω·D⁻¹(b − A·x) with the
// residual A·x already in r; each index is written by exactly one slot.
type jacobiTask struct {
	x, b, r, invDiag []float64
	omega            float64
}

func (t *jacobiTask) Range(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		t.x[i] += t.omega * (t.b[i] - t.r[i]) * t.invDiag[i]
	}
}

// SetRecorder attaches a telemetry recorder: the cycling loop is timed
// into PhaseIterate, per-cycle residuals feed the trace, and V-/W-cycle
// counts land in the "mg.cycles" counter. Nil disables instrumentation.
func (s *Solver) SetRecorder(r *telemetry.Recorder) { s.rec = r }

// ErrGrid is wrapped by New when the operator's order is not n² for an
// odd grid side n that coarsens at least once (n ≥ 2·CoarsestN+1): the
// full-weighting and bilinear transfers assume that grid.
var ErrGrid = errors.New("mg: operator is not an odd square grid")

// The two ways Solve's cycling fails: the residual became non-finite,
// or MaxCycles ran out above the tolerance.
var (
	ErrDiverged      = errors.New("mg: diverged")
	ErrNoConvergence = errors.New("mg: no convergence")
)

// New builds the hierarchy on a, the fine operator (collective). The
// grid side is n = √(global rows); every coarser operator is the
// Galerkin product R·A·P of the level above.
func New(c *comm.Comm, a *pmat.Mat, opts Options) (*Solver, error) {
	opts.setDefaults()
	if opts.Coarse == nil {
		return nil, fmt.Errorf("mg: Options.Coarse is required")
	}
	n := int(math.Sqrt(float64(a.L.N)))
	if n*n != a.L.N || n%2 == 0 || n < 2*opts.CoarsestN+1 {
		return nil, fmt.Errorf("%w: %d rows (need n² rows for odd n ≥ %d; sizes 2^k−1 coarsen fully)", ErrGrid, a.L.N, 2*opts.CoarsestN+1)
	}
	s := &Solver{c: c, opts: opts}
	for {
		lvl, err := newLevel(c, n, a, opts.Omega)
		if err != nil {
			return nil, err
		}
		s.levels = append(s.levels, lvl)
		if n <= opts.CoarsestN || n%2 == 0 || (n-1)/2 < opts.CoarsestN {
			break
		}
		nc := (n - 1) / 2
		cl, err := pmat.EvenLayout(c, nc*nc)
		if err != nil {
			return nil, err
		}
		if lvl.restrict, err = buildRestriction(cl, a.L, nc, n); err != nil {
			return nil, err
		}
		if lvl.prolong, err = buildProlongation(a.L, cl, n, nc); err != nil {
			return nil, err
		}
		// Triple product on the gathered operators; coarse grids are
		// small, so the serial RAP at setup is cheap relative to the
		// fine-level work.
		rap, err := sparse.TripleProduct(lvl.restrict.GatherGlobal(), a.GatherGlobal(), lvl.prolong.GatherGlobal())
		if err != nil {
			return nil, fmt.Errorf("mg: Galerkin coarse operator: %w", err)
		}
		if a, err = pmat.NewMat(cl, rap.SubMatrix(cl.Start, cl.Start+cl.LocalN)); err != nil {
			return nil, err
		}
		n = nc
	}

	// Gather the coarsest operator for the LISI coarse solve.
	last := s.levels[len(s.levels)-1]
	s.coarseA = last.a.GatherGlobal()

	// Size the per-level cycling scratch so Solve allocates nothing.
	for k := 0; k+1 < len(s.levels); k++ {
		next := s.levels[k+1]
		s.levels[k].bc = make([]float64, next.layout.LocalN)
		s.levels[k].xc = make([]float64, next.layout.LocalN)
	}
	last.bGlobal = make([]float64, last.layout.N)
	return s, nil
}

// newLevel wraps the operator a of the n×n grid (collective). Its
// Jacobi damping is omega·min(1, (2/g)²), where g = maxᵢ Σⱼ|aᵢⱼ|/|aᵢᵢ|
// over every rank bounds ρ(D⁻¹A): omega itself on a weakly diagonally
// dominant level (g = 2, every level of the model PDE), less on a
// Galerkin level of a convection-dominated operator, whose g reaches 4
// and which the full omega amplifies instead of smoothing. A zero on any
// rank's diagonal fails every rank with sparse.ErrZeroDiagonal.
func newLevel(c *comm.Comm, n int, a *pmat.Mat, omega float64) (*level, error) {
	rows := a.LocalRowsGlobal()
	inv := make([]float64, rows.Rows)
	g := 0.0
	for i := range inv {
		sum, d := 0.0, 0.0
		for k := rows.RowPtr[i]; k < rows.RowPtr[i+1]; k++ {
			sum += math.Abs(rows.Vals[k])
			if rows.ColInd[k] == a.L.Start+i {
				d = rows.Vals[k]
			}
		}
		if d == 0 {
			g = math.Inf(1)
			continue
		}
		inv[i] = 1 / d
		g = math.Max(g, sum/math.Abs(d))
	}
	if g = c.AllReduceFloat64(g, comm.OpMax); math.IsInf(g, 1) {
		return nil, fmt.Errorf("mg: level n=%d: %w", n, sparse.ErrZeroDiagonal)
	}
	return &level{
		layout: a.L, a: a, invDiag: inv, omega: omega * math.Min(1, 4/(g*g)),
		r: make([]float64, a.L.LocalN),
		z: make([]float64, a.L.LocalN),
	}, nil
}

// buildRestriction assembles the full-weighting operator R (coarse×fine):
// coarse point (CI,CJ) sits at fine (2CI+1, 2CJ+1) and averages its 3×3
// fine neighborhood with weights 1/4, 1/8, 1/16.
func buildRestriction(coarseL, fineL *pmat.Layout, nc, nf int) (*pmat.Mat, error) {
	coo := sparse.NewCOO(coarseL.LocalN, fineL.N)
	// 1D full-weighting stencil [1/4, 1/2, 1/4]; the tensor product gives
	// the classic 2D weights 1/4 (center), 1/8 (edge), 1/16 (corner).
	w := [3]float64{0.25, 0.5, 0.25}
	for lr := 0; lr < coarseL.LocalN; lr++ {
		cr := coarseL.Start + lr
		ci := cr % nc
		cj := cr / nc
		fi := 2*ci + 1
		fj := 2*cj + 1
		for dj := -1; dj <= 1; dj++ {
			for di := -1; di <= 1; di++ {
				ii := fi + di
				jj := fj + dj
				if ii < 0 || ii >= nf || jj < 0 || jj >= nf {
					continue
				}
				coo.Append(lr, jj*nf+ii, w[di+1]*w[dj+1])
			}
		}
	}
	return pmat.NewMatRect(coarseL, fineL, coo.ToCSR())
}

// interpWeight is one 1D interpolation contribution: coarse index and
// weight.
type interpWeight struct {
	idx int
	w   float64
}

// buildProlongation assembles bilinear interpolation P (fine×coarse).
func buildProlongation(fineL, coarseL *pmat.Layout, nf, nc int) (*pmat.Mat, error) {
	coo := sparse.NewCOO(fineL.LocalN, coarseL.N)
	// 1D contributions of fine index i to coarse indices: fine points
	// coinciding with a coarse point copy it; in-between points average
	// their coarse neighbors (boundary neighbors are the zero Dirichlet
	// values and drop out).
	contrib := func(i int, buf []interpWeight) []interpWeight {
		buf = buf[:0]
		if i%2 == 1 {
			return append(buf, interpWeight{(i - 1) / 2, 1})
		}
		if left := i/2 - 1; left >= 0 {
			buf = append(buf, interpWeight{left, 0.5})
		}
		if right := i / 2; right < nc {
			buf = append(buf, interpWeight{right, 0.5})
		}
		return buf
	}
	var bufX, bufY []interpWeight
	for lr := 0; lr < fineL.LocalN; lr++ {
		fr := fineL.Start + lr
		fi := fr % nf
		fj := fr / nf
		bufX = contrib(fi, bufX)
		bufY = contrib(fj, bufY)
		for _, cx := range bufX {
			for _, cy := range bufY {
				coo.Append(lr, cy.idx*nc+cx.idx, cx.w*cy.w)
			}
		}
	}
	return pmat.NewMatRect(fineL, coarseL, coo.ToCSR())
}

// Levels returns the number of grids in the hierarchy.
func (s *Solver) Levels() int { return len(s.levels) }

// Cycles returns the V-cycles used by the last Solve.
func (s *Solver) Cycles() int { return s.cycles }

// ResidualNorm returns the final residual 2-norm of the last Solve.
func (s *Solver) ResidualNorm() float64 { return s.rnorm }

// FineOperator returns the finest level's distributed operator.
func (s *Solver) FineOperator() *pmat.Mat { return s.levels[0].a }

// Solve runs V-cycles on A·x = b until the relative residual falls under
// Tol (collective). b and x are the finest level's local blocks; x is
// used as the initial guess.
func (s *Solver) Solve(b, x []float64) error {
	fine := s.levels[0]
	if len(b) != fine.layout.LocalN || len(x) != fine.layout.LocalN {
		return fmt.Errorf("mg: Solve: local vectors must have length %d", fine.layout.LocalN)
	}
	bnorm := pmat.Norm2(s.c, b)
	if bnorm == 0 {
		bnorm = 1
	}
	defer s.rec.StartPhase(telemetry.PhaseIterate)()
	for cycle := 1; cycle <= s.opts.MaxCycles; cycle++ {
		if err := s.vcycle(0, b, x); err != nil {
			return err
		}
		res := fine.a.Residual(b, x)
		s.cycles = cycle
		s.rnorm = res
		s.rec.Add("mg.cycles", 1)
		s.rec.Residual(cycle, res)
		if res <= s.opts.Tol*bnorm {
			return nil
		}
		if math.IsNaN(res) || math.IsInf(res, 0) {
			return fmt.Errorf("%w at cycle %d", ErrDiverged, cycle)
		}
	}
	return fmt.Errorf("%w in %d cycles (relative residual %.3e)", ErrNoConvergence, s.opts.MaxCycles, s.rnorm/bnorm)
}

// smooth performs sweeps of damped Jacobi: x ← x + ω·D⁻¹(b − A·x). The
// element-wise update fans out across the pool's workers, or runs inline
// on a nil or one-worker pool.
func (s *Solver) smooth(lvl *level, b, x []float64, sweeps int) {
	for n := 0; n < sweeps; n++ {
		lvl.a.Apply(lvl.r, x)
		s.jac = jacobiTask{x: x, b: b, r: lvl.r, invDiag: lvl.invDiag, omega: lvl.omega}
		s.pool.Run(len(x), &s.jac)
		s.jac = jacobiTask{}
	}
}

// vcycle recursively applies one V-cycle at level k for A_k·x = b.
func (s *Solver) vcycle(k int, b, x []float64) error {
	lvl := s.levels[k]
	if k == len(s.levels)-1 {
		// Coarsest: gather (into the persistent buffer) and delegate to
		// the LISI coarse solver.
		bGlobal := pmat.AllGatherInto(lvl.layout, lvl.bGlobal, b)
		xg, err := s.opts.Coarse(s.coarseA, bGlobal)
		if err != nil {
			return fmt.Errorf("mg: coarse solve: %w", err)
		}
		copy(x, xg[lvl.layout.Start:lvl.layout.Start+lvl.layout.LocalN])
		return nil
	}
	s.smooth(lvl, b, x, s.opts.Nu1)

	// Residual and restriction.
	lvl.a.Apply(lvl.r, x)
	for i := range lvl.r {
		lvl.r[i] = b[i] - lvl.r[i]
	}
	bc := lvl.bc
	lvl.restrict.Apply(bc, lvl.r)

	// γ recursions into the coarser level: γ=1 is the V-cycle, γ=2 the
	// W-cycle (the coarsest level solves exactly either way, so extra
	// visits there are skipped). xc accumulates from a zero initial
	// guess, so clear the reused buffer.
	xc := lvl.xc
	for i := range xc {
		xc[i] = 0
	}
	gamma := s.opts.Gamma
	if k+1 == len(s.levels)-1 {
		gamma = 1
	}
	for g := 0; g < gamma; g++ {
		if err := s.vcycle(k+1, bc, xc); err != nil {
			return err
		}
	}

	// Prolong and correct.
	lvl.prolong.Apply(lvl.z, xc)
	for i := range x {
		x[i] += lvl.z[i]
	}
	s.smooth(lvl, b, x, s.opts.Nu2)
	return nil
}
