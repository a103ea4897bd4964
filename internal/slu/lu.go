package slu

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sparse"
)

// Options control the factorization, mirroring SuperLU's driver options.
type Options struct {
	// ColPerm is the fill-reducing column ordering.
	ColPerm Ordering
	// PivotThreshold u ∈ (0,1]: the diagonal entry is kept as pivot when
	// |a_diag| ≥ u·max|a_col| (1.0 = classic partial pivoting,
	// SuperLU's diag_pivot_thresh).
	PivotThreshold float64
	// Equilibrate applies row and column scaling before factorization.
	Equilibrate bool
}

// DefaultOptions mirrors SuperLU's defaults: natural ordering replaced by
// minimum degree, threshold 1.0 (partial pivoting), equilibration on.
func DefaultOptions() Options {
	return Options{ColPerm: OrderMinDegree, PivotThreshold: 1.0, Equilibrate: true}
}

// LU is a sparse factorization P·Dr·A·Dc·Q = L·U produced by Factor.
// L is unit lower triangular and U upper triangular, both stored by
// columns in factor coordinates.
type LU struct {
	n int

	// L in factor row numbering: column k starts with the unit diagonal.
	lPtr  []int
	lRows []int
	lVals []float64
	// U in factor row numbering: column k's diagonal entry is last.
	uPtr  []int
	uRows []int
	uVals []float64

	rowPerm []int     // pinv: original row -> factor row
	colPerm []int     // q: factor column -> original column
	dr, dc  []float64 // equilibration scalings (nil when disabled)

	// What a same-pattern refresh replays (Symbolic.replay) beside the
	// arrays above. zRows[zPtr[k]:zPtr[k+1]] are the factor rows column k
	// reached, left unpivoted and dropped from L because their value was
	// exactly zero. pivAt[k] counts the stored sub-diagonal rows of L(:,k)
	// the pivot search met before the pivot row, which win a tie with it.
	// sym is the analysis whose numeric phase completed this factor:
	// cleared before a pass writes to f, set only when one finishes.
	zPtr, zRows []int
	pivAt       []int
	sym         *Symbolic

	// Lazily allocated scratch so repeated SolveInto/Refine calls do not
	// allocate (steady-state reuse; see docs/PERFORMANCE.md).
	workC, workR, workDx []float64

	// ls holds the level-scheduled parallel triangular-solve state
	// (EnableLevels); nil or an unpooled ls keeps the serial sweeps.
	ls *levelSolve
}

// NNZ returns the stored entries in L and U combined.
func (f *LU) NNZ() int { return len(f.lVals) + len(f.uVals) }

// checkFactorArgs rejects what no analysis or numeric phase can work on.
func checkFactorArgs(a *sparse.CSR, opts Options) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("slu: Factor requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if opts.PivotThreshold <= 0 || opts.PivotThreshold > 1 {
		return fmt.Errorf("slu: pivot threshold must be in (0,1], got %g", opts.PivotThreshold)
	}
	if a.Rows == 0 {
		return fmt.Errorf("slu: cannot factor an empty matrix")
	}
	return nil
}

// Factor computes the sparse LU factorization of a square CSR matrix
// using the left-looking Gilbert–Peierls algorithm with threshold partial
// pivoting: Analyze followed by one numeric phase. DistSolver.Refactor
// keeps the Symbolic across a sequence of matrices with one pattern.
func Factor(a *sparse.CSR, opts Options) (*LU, error) {
	if err := checkFactorArgs(a, opts); err != nil {
		return nil, err
	}
	s, err := Analyze(a, opts.ColPerm)
	if err != nil {
		return nil, err
	}
	return s.factorFresh(a, opts)
}

// factorFresh runs the numeric phase into a new LU.
func (s *Symbolic) factorFresh(a *sparse.CSR, opts Options) (*LU, error) {
	f := new(LU)
	if _, err := s.factorInto(f, a, opts); err != nil {
		return nil, err
	}
	return f, nil
}

// numericPass says which way a numeric phase went.
type numericPass int

const (
	passFull     numericPass = iota // f held no factor of this analysis
	passReplayed                    // the recorded structure validated in every column
	passFellBack                    // a validation failed; the full pass ran after all
)

// factorInto is the numeric phase, writing into f and reusing whatever
// backing arrays f already owns (a refresh refills the previous factor's
// storage; a fresh LU is sized from the last run's hints). The caller has
// checked the arguments and that s matches a. When f is a finished factor
// of this same analysis the recorded row permutation and L/U structure are
// replayed and validated (replay); anything else, and a replay that
// fails a validation, takes the full pass. On error f is half-written and
// must be discarded or refilled.
func (s *Symbolic) factorInto(f *LU, a *sparse.CSR, opts Options) (numericPass, error) {
	n := s.n
	if len(f.workC) != n {
		f.workC, f.workR, f.workDx = nil, nil, nil
	}
	recorded := f.sym == s
	f.sym = nil
	f.n = n
	f.colPerm = s.colPerm

	if err := s.scatter(f, a, opts.Equilibrate); err != nil {
		return passFull, err
	}
	pass := passFull
	if recorded {
		if s.replay(f, opts.PivotThreshold) {
			if f.ls != nil {
				f.ls.fill(f)
			}
			f.sym = s
			return passReplayed, nil
		}
		pass = passFellBack
	}
	if err := s.fullPass(f, opts.PivotThreshold); err != nil {
		return pass, err
	}
	// The row-major mirrors describe the previous factor: rebuild them for
	// the pool the caller attached.
	if ls := f.ls; ls != nil {
		f.ls = nil
		f.EnableLevels(ls.pool)
	}
	f.sym = s
	return pass, nil
}

// fullPass is the left-looking Gilbert–Peierls loop over the values
// scatter left in s.vals: the one path that discovers the row permutation
// and the structure of L and U, and records them for replay.
func (s *Symbolic) fullPass(f *LU, threshold float64) error {
	n := s.n
	q, colPtr, rowInd, vals := s.colPerm, s.colPtr, s.rowInd, s.vals

	lPtr := slices.Grow(f.lPtr[:0], n+1)[:n+1]
	uPtr := slices.Grow(f.uPtr[:0], n+1)[:n+1]
	zPtr := slices.Grow(f.zPtr[:0], n+1)[:n+1]
	pivAt := slices.Grow(f.pivAt[:0], n)[:n]
	lPtr[0], uPtr[0], zPtr[0] = 0, 0, 0
	zRows := f.zRows[:0]
	lRows := slices.Grow(f.lRows[:0], s.lCap)
	lVals := slices.Grow(f.lVals[:0], s.lCap)
	uRows := slices.Grow(f.uRows[:0], s.uCap)
	uVals := slices.Grow(f.uVals[:0], s.uCap)
	pinv := slices.Grow(f.rowPerm[:0], n)[:n] // original row -> factor row (-1 unpivoted)
	for i := range pinv {
		pinv[i] = -1
	}

	x := s.x           // dense accumulator
	marked := s.marked // a failed run may have left both dirty
	clear(x)
	clear(marked)
	pattern, stack, pstack := s.pattern, s.stack, s.pstack // topological pattern of x, DFS stacks

	for k := 0; k < n; k++ {
		col := q[k]
		b0, b1 := colPtr[col], colPtr[col+1]
		if b0 == b1 {
			return fmt.Errorf("slu: structurally singular: column %d is empty", col)
		}

		// ---- Symbolic: reach of the column pattern through L ----
		pattern = pattern[:0]
		for p := b0; p < b1; p++ {
			i := rowInd[p]
			if marked[i] {
				continue
			}
			// Depth-first search from i over pivoted columns of L,
			// emitting nodes in reverse topological order.
			stack = append(stack[:0], i)
			pstack = append(pstack[:0], 0)
			marked[i] = true
			for len(stack) > 0 {
				top := len(stack) - 1
				node := stack[top]
				J := pinv[node]
				descended := false
				if J >= 0 {
					lo, hi := lPtr[J], lPtr[J+1]
					for pp := lo + 1 + pstack[top]; pp < hi; pp++ {
						child := lRows[pp]
						if !marked[child] {
							pstack[top] = pp - lo // resume point
							stack = append(stack, child)
							pstack = append(pstack, 0)
							marked[child] = true
							descended = true
							break
						}
					}
				}
				if !descended {
					stack = stack[:top]
					pstack = pstack[:top]
					pattern = append(pattern, node)
				}
			}
		}
		// pattern is in reverse topological order; reverse it.
		for i, j := 0, len(pattern)-1; i < j; i, j = i+1, j-1 {
			pattern[i], pattern[j] = pattern[j], pattern[i]
		}

		// ---- Numeric: sparse lower triangular solve ----
		for _, i := range pattern {
			x[i] = 0
		}
		for p := b0; p < b1; p++ {
			x[rowInd[p]] = vals[p]
		}
		for _, i := range pattern {
			J := pinv[i]
			if J < 0 {
				continue
			}
			xi := x[i]
			if xi == 0 {
				continue
			}
			for pp := lPtr[J] + 1; pp < lPtr[J+1]; pp++ {
				x[lRows[pp]] -= lVals[pp] * xi
			}
		}

		// ---- Pivot selection among unpivoted rows ----
		pivRow, maxAbs := -1, 0.0
		diagRow := -1
		for _, i := range pattern {
			if pinv[i] >= 0 {
				continue
			}
			if av := math.Abs(x[i]); av > maxAbs {
				maxAbs, pivRow = av, i
			}
			if i == col {
				diagRow = i
			}
		}
		if pivRow < 0 || maxAbs == 0 {
			return fmt.Errorf("slu: matrix is singular at column %d (no usable pivot)", k)
		}
		if diagRow >= 0 && math.Abs(x[diagRow]) >= threshold*maxAbs {
			pivRow = diagRow // prefer the diagonal under the threshold rule
		}
		pivot := x[pivRow]
		pinv[pivRow] = k

		// ---- Store U(:,k) (factor rows < k, diagonal last) and L(:,k) ----
		for _, i := range pattern {
			if fi := pinv[i]; fi >= 0 && fi < k {
				uRows = append(uRows, fi)
				uVals = append(uVals, x[i])
			}
		}
		uRows = append(uRows, k)
		uVals = append(uVals, pivot)
		uPtr[k+1] = len(uRows)

		lRows = append(lRows, pivRow)
		lVals = append(lVals, 1.0)
		for _, i := range pattern {
			if pinv[i] >= 0 {
				if i == pivRow {
					pivAt[k] = len(lRows) - lPtr[k] - 1
				}
				continue
			}
			if x[i] != 0 {
				lRows = append(lRows, i)
				lVals = append(lVals, x[i]/pivot)
			} else {
				zRows = append(zRows, i)
			}
		}
		lPtr[k+1] = len(lRows)
		zPtr[k+1] = len(zRows)

		for _, i := range pattern {
			marked[i] = false
			x[i] = 0
		}
	}

	// Renumber L's stored rows into factor coordinates so the triangular
	// solves — and a replay — are plain loops.
	for p := range lRows {
		lRows[p] = pinv[lRows[p]]
	}
	for p := range zRows {
		zRows[p] = pinv[zRows[p]]
	}
	f.lPtr, f.lRows, f.lVals = lPtr, lRows, lVals
	f.uPtr, f.uRows, f.uVals = uPtr, uRows, uVals
	f.zPtr, f.zRows, f.pivAt = zPtr, zRows, pivAt
	f.rowPerm = pinv
	s.pattern, s.stack, s.pstack = pattern, stack, pstack
	s.lCap, s.uCap = len(lRows), len(uRows)
	return nil
}

// replay is the numeric phase over the structure f already holds: in
// factor coordinates, column k scatters A(:,q[k]) through the recorded row
// permutation, applies the updates of the recorded U(:,k) rows in their
// stored — topological — order and overwrites the stored values. There is
// no reach, no mark and no pivot search; instead every column is checked
// against what fullPass would decide from the same x:
//
//   - the recorded pivot is the row the threshold rule picks. A diagonal
//     pivot needs |x_k| ≥ u·max|candidates|; an off-diagonal one must be
//     the largest candidate, strictly larger than those the search met
//     first (pivAt: the first of several equal maxima wins), with the
//     diagonal short of the threshold;
//   - every row stored in L(:,k) is still non-zero and every recorded
//     dropped row is still exactly zero, so L keeps its structure.
//
// The reach of column k is a function of A's pattern and of L(:,0..k-1)
// and the permutation so far; if columns 0..k-1 validated, those are what
// fullPass would have built, so its pattern for column k is the recorded
// one in the recorded order, x receives the same operations in the same
// order, and a validated column k extends the claim. A replay that returns
// true has therefore written fullPass's bits. Every comparison is written
// so that a NaN fails it. On false f is half-overwritten and s.x dirty;
// fullPass assumes neither.
func (s *Symbolic) replay(f *LU, threshold float64) bool {
	q, colPtr, rowInd, vals := s.colPerm, s.colPtr, s.rowInd, s.vals
	lPtr, lRows, lVals := f.lPtr, f.lRows, f.lVals
	uPtr, uRows, uVals := f.uPtr, f.uRows, f.uVals
	zPtr, zRows, pivAt := f.zPtr, f.zRows, f.pivAt
	pinv := f.rowPerm
	x := s.x // zero outside the column being worked on
	clear(x)

	for k := 0; k < s.n; k++ {
		col := q[k]
		for p := colPtr[col]; p < colPtr[col+1]; p++ {
			x[pinv[rowInd[p]]] = vals[p]
		}

		// Sparse lower triangular solve. Row j is final when its turn
		// comes (every column updating it came earlier), so U(j,k) is
		// stored and x[j] released on the spot.
		diag := uPtr[k+1] - 1
		for p := uPtr[k]; p < diag; p++ {
			j := uRows[p]
			xj := x[j]
			uVals[p] = xj
			x[j] = 0
			if xj == 0 {
				continue
			}
			rows := lRows[lPtr[j]+1 : lPtr[j+1]]
			lv := lVals[lPtr[j]+1 : lPtr[j+1]]
			for t, i := range rows {
				x[i] -= lv[t] * xj
			}
		}

		// The unpivoted rows of the pattern are k, L(:,k) and the dropped
		// rows: validate them against the pivot rule.
		below := lRows[lPtr[k]+1 : lPtr[k+1]]
		pivot := x[k]
		ak := math.Abs(pivot)
		earlier := largest(x, below[:pivAt[k]])
		later := largest(x, below[pivAt[k]:])
		if earlier < 0 || later < 0 {
			return false
		}
		for _, i := range zRows[zPtr[k]:zPtr[k+1]] {
			if x[i] != 0 {
				return false
			}
			x[i] = 0 // a negative zero is still a value
		}
		if d := pinv[col]; d == k {
			if !(ak > 0 && ak >= threshold*max(earlier, later)) {
				return false
			}
		} else if !(ak > earlier && ak >= later) || (d > k && !(math.Abs(x[d]) < threshold*ak)) {
			// x[d] is the diagonal's value if it is a candidate and zero
			// if column k never reached it.
			return false
		}

		uVals[diag] = pivot
		x[k] = 0
		lv := lVals[lPtr[k]+1 : lPtr[k+1]]
		for t, i := range below {
			lv[t] = x[i] / pivot
			x[i] = 0
		}
	}
	return true
}

// largest returns max |x[i]| over rows, or -1 when an x[i] is zero or NaN.
func largest(x []float64, rows []int) float64 {
	m := 0.0
	for _, i := range rows {
		av := math.Abs(x[i])
		if !(av > 0) {
			return -1
		}
		if av > m {
			m = av
		}
	}
	return m
}
