package slu

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// DistSolver is the distributed front end standing in for SuperLU_DIST:
// it accepts a block-row distributed matrix and right-hand side and
// returns the conformally distributed solution. Internally the matrix is
// gathered to rank 0 and factored there — a documented substitution
// (DESIGN.md): the paper uses SuperLU only as one more package behind the
// LISI port, and gather-to-root preserves the call pattern (distributed
// data in, distributed solution out) while keeping the factorization
// serial.
type DistSolver struct {
	layout *pmat.Layout
	f      *LU         // non-nil on rank 0 only
	global *sparse.CSR // non-nil on rank 0 only
	nnz    int
	rec    *telemetry.Recorder

	// Rank 0's set-up state across Refactor calls: the analysis of the
	// last pattern factored, the storage of a factor a failed Refactor
	// withdrew (f is nil then), and what the set-ups did.
	sym   *Symbolic
	spare *LU
	stats SetupStats

	// Persistent per-solve buffers (steady-state reuse): the gathered
	// rhs and solution (rank 0 only), the scatter views into xGlobal,
	// and the fused {errFlag, residual} status broadcast staging.
	bGlobal []float64
	xGlobal []float64
	parts   [][]float64
	stat    [2]float64
}

// SetRecorder attaches a telemetry recorder: the root triangular solves
// (and refinement) of later Solve calls are timed into PhaseIterate and
// refinement steps are counted. Nil disables instrumentation.
func (d *DistSolver) SetRecorder(r *telemetry.Recorder) { d.rec = r }

// SetupStats is what this rank's set-ups have done since the solver was
// built. Only rank 0 analyses and factors, so every field is zero on the
// other ranks.
type SetupStats struct {
	Analyses       int // set-ups that ordered and analysed the pattern
	SymbolicReuses int // set-ups that found the stored analysis valid
	// Of the reuses, those that found a finished factor to replay: the
	// recorded row permutation and L/U structure validated in every
	// column, or a validation failed and the full pass ran after all. The
	// rest (a reuse after a failed Refactor) had nothing to replay.
	StaticRefactors  int
	RowPermFallbacks int
	OrderingNs       int64 // time in Analyze
	NumericNs        int64 // time in the numeric phase
}

// Sub returns s − o, the set-up work done between two readings.
func (s SetupStats) Sub(o SetupStats) SetupStats {
	return SetupStats{
		Analyses:         s.Analyses - o.Analyses,
		SymbolicReuses:   s.SymbolicReuses - o.SymbolicReuses,
		StaticRefactors:  s.StaticRefactors - o.StaticRefactors,
		RowPermFallbacks: s.RowPermFallbacks - o.RowPermFallbacks,
		OrderingNs:       s.OrderingNs - o.OrderingNs,
		NumericNs:        s.NumericNs - o.NumericNs,
	}
}

// SetupStats returns the cumulative set-up record (local, no
// communication).
func (d *DistSolver) SetupStats() SetupStats { return d.stats }

// NewDistSolver gathers the distributed matrix to rank 0 and factors it
// there (collective). Every rank receives the same success/failure
// outcome.
func NewDistSolver(m *pmat.Mat, opts Options) (*DistSolver, error) {
	d := &DistSolver{layout: m.L}
	if err := d.Refactor(m, opts); err != nil {
		return nil, err
	}
	return d, nil
}

// Refactor replaces the factored matrix by m (collective; every rank
// receives the same outcome). Rank 0 keeps the symbolic analysis of the
// last pattern it factored: when m's gathered pattern and opts.ColPerm
// equal the stored ones entry for entry, only the numeric phase runs —
// replaying the previous factor's row permutation and L/U structure for
// as long as every pivot validates (Symbolic.replay); otherwise the
// pattern is analysed afresh. Either way the previous factor's arrays are
// refilled rather than reallocated. After an error
// the solver holds no factor — solves fail with a typed error — until a
// later Refactor succeeds.
func (d *DistSolver) Refactor(m *pmat.Mat, opts Options) error {
	if l := d.layout; m.L.Comm() != l.Comm() || !m.L.Conformal(l) {
		// A new partition moves where vectors are gathered from and
		// scattered to, nothing else: the analysis and the factor describe
		// the global matrix. (Starts is global, so every rank agrees.)
		d.xGlobal, d.parts = nil, nil
	}
	d.layout = m.L
	c := d.layout.Comm()
	// GatherGlobal assembles on every rank; only rank 0 retains it. The
	// assembly cost is dominated by the factorization, and the gather is
	// itself the collective every rank must join.
	global := m.GatherGlobal()
	var err error
	if c.Rank() == 0 {
		// Whether the analysis is reused is decided here, on rank 0 alone,
		// and nothing below depends on it: both outcomes run the same
		// collectives, so the ranks cannot diverge over it.
		err = d.refactorRoot(global, opts)
	}
	if err = pmat.Agree(c, err); err != nil {
		return err
	}
	d.nnz = c.BcastInt(0, d.nnz)
	return nil
}

// refactorRoot is rank 0's part of Refactor. The old factor is withdrawn
// before anything is overwritten, so a failure leaves nothing
// half-written reachable.
func (d *DistSolver) refactorRoot(a *sparse.CSR, opts Options) error {
	f := d.f
	if f == nil {
		f = d.spare
	}
	if f == nil {
		f = new(LU)
	}
	d.f, d.spare, d.global = nil, f, nil
	if err := checkFactorArgs(a, opts); err != nil {
		return err
	}
	start := time.Now()
	if d.sym != nil && d.sym.matches(a, opts.ColPerm) {
		d.stats.SymbolicReuses++
	} else {
		s, err := Analyze(a, opts.ColPerm)
		if err != nil {
			return err
		}
		d.sym = s
		d.stats.Analyses++
		d.stats.OrderingNs += int64(time.Since(start))
		start = time.Now()
	}
	pass, err := d.sym.factorInto(f, a, opts)
	d.stats.NumericNs += int64(time.Since(start))
	switch pass {
	case passReplayed:
		d.stats.StaticRefactors++
	case passFellBack:
		d.stats.RowPermFallbacks++
	}
	if err != nil {
		return err
	}
	d.f, d.spare, d.global, d.nnz = f, nil, a, a.NNZ()
	return nil
}

// FillRatio reports nnz(L+U)/nnz(A) (collective); 0 while a failed
// Refactor has left the solver without a factor.
func (d *DistSolver) FillRatio() float64 {
	c := d.layout.Comm()
	v := 0.0
	if c.Rank() == 0 && d.f != nil {
		v = d.f.FillRatio(d.nnz)
	}
	all := c.BcastFloat64s(0, []float64{v})
	return all[0]
}

// Solve solves A·x = b for a conformally distributed right-hand side and
// returns this rank's block of the solution (collective).
func (d *DistSolver) Solve(bLocal []float64) ([]float64, error) {
	l := d.layout
	if len(bLocal) != l.LocalN {
		return nil, fmt.Errorf("slu: DistSolver.Solve: local rhs has length %d, want %d", len(bLocal), l.LocalN)
	}
	x := make([]float64, l.LocalN)
	_, err := d.rootSolveInto(x, bLocal, 0)
	if err != nil {
		return nil, err
	}
	return x, nil
}

// The failures of a root solve: rank 0's without a factor, and every
// other rank's when rank 0's solve failed.
var (
	errNoFactor  = errors.New("slu: no factorization: the last Refactor failed")
	errRootSolve = errors.New("slu: the solve on rank 0 failed")
)

// rootSolveInto gathers the rhs at rank 0, solves (with optional
// refinement steps), and scatters the solution into the caller-provided
// xLocal (collective). Returns the refinement residual ∞-norm. Repeated
// calls reuse the gathered-vector buffers and fuse the error flag and
// residual into one broadcast, so the steady state does not allocate. A
// failure is only a flag to the other ranks: rank 0 returns its own
// error, the others errRootSolve.
func (d *DistSolver) rootSolveInto(xLocal, bLocal []float64, steps int) (float64, error) {
	l := d.layout
	c := l.Comm()
	d.bGlobal = pmat.GatherInto(l, 0, d.bGlobal, bLocal)
	err := errRootSolve
	d.stat[0], d.stat[1] = 0, 0
	if c.Rank() == 0 {
		if len(d.xGlobal) != l.N {
			d.xGlobal = make([]float64, l.N)
			// Scatter views into the (re)allocated solution buffer.
			d.parts = make([][]float64, c.Size())
			for r := 0; r < c.Size(); r++ {
				d.parts[r] = d.xGlobal[l.Starts[r]:l.Starts[r+1]]
			}
		}
		stop := d.rec.StartPhase(telemetry.PhaseIterate)
		if d.f == nil {
			err = errNoFactor
		} else if err = d.f.SolveInto(d.xGlobal, d.bGlobal); err == nil && steps > 0 {
			d.rec.Add("slu.refine_steps", int64(steps))
			d.stat[1], err = d.f.Refine(d.global, d.bGlobal, d.xGlobal, steps)
		}
		stop()
		d.rec.Add("slu.root_solves", 1)
		if err != nil {
			d.stat[0] = 1
		}
	}
	c.BcastFloat64sInto(0, d.stat[:])
	if d.stat[0] != 0 {
		return 0, err
	}
	c.ScatterVFloat64sInto(0, d.parts, xLocal)
	return d.stat[1], nil
}

// SolveRefinedInto solves like Solve, then applies steps of iterative
// refinement (steps may be 0), writing this rank's solution block into the
// caller-provided xLocal and returning the global ∞-norm of the final
// residual (collective). Repeated calls do not allocate.
func (d *DistSolver) SolveRefinedInto(xLocal, bLocal []float64, steps int) (float64, error) {
	l := d.layout
	if len(bLocal) != l.LocalN || len(xLocal) != l.LocalN {
		return 0, fmt.Errorf("slu: DistSolver.SolveRefinedInto: local vectors have lengths %d/%d, want %d", len(bLocal), len(xLocal), l.LocalN)
	}
	if steps < 0 {
		return 0, fmt.Errorf("slu: DistSolver.SolveRefinedInto: negative step count %d", steps)
	}
	return d.rootSolveInto(xLocal, bLocal, steps)
}
