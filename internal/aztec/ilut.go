package aztec

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/par"
	"repro/internal/sparse"
)

// ILUT is Saad's dual-threshold incomplete LU factorization ILUT(τ,lfil)
// of a local (serial) square matrix: entries smaller than a relative drop
// tolerance are discarded, and each factor row keeps only its largest
// entries up to a fill budget derived from the fill ratio. This is the
// subdomain solve behind the AZDomDecomp preconditioner (AztecOO's
// AZ_ilut), independent of ksp's ILU(0).
type ILUT struct {
	n     int
	lPtr  []int
	lCols []int
	lVals []float64 // unit lower triangle, diagonal implicit
	uPtr  []int
	uCols []int
	uVals []float64 // strict upper triangle
	uDiag []float64

	// tri describes the two row-oriented factors to the shared
	// triangular-sweep kernel, which runs them serially.
	tri par.RowTri
}

// Failures of NewILUT, wrapped with the offending row index.
var (
	// ErrILUTZeroRow: a row with no nonzero entry has no norm to scale
	// the drop tolerance by — the matrix is structurally singular.
	ErrILUTZeroRow = fmt.Errorf("row is entirely zero: %w", sparse.ErrSingular)
	// ErrILUTZeroPivot: elimination cancelled the diagonal and a zero
	// drop tolerance leaves nothing to substitute for it.
	ErrILUTZeroPivot = fmt.Errorf("zero pivot with zero drop tolerance: %w", sparse.ErrSingular)
	// ErrILUTNonFinite: a NaN or Inf in the row, or one produced by the
	// elimination, which every threshold test would silently let through.
	ErrILUTNonFinite = errors.New("non-finite entry or pivot")
)

// ilutCand is one entry of the working row staged for the keep-largest
// cut, its magnitude beside its column so that selection compares
// contiguous memory rather than chasing w[col].
type ilutCand struct {
	abs float64
	col int
}

// before is the total order of the cut: larger magnitude first, an exact
// tie going to the smaller column. Columns of one row are distinct, so no
// two candidates compare equal and the kept set is unique.
func (a ilutCand) before(b ilutCand) bool {
	if a.abs > b.abs {
		return true
	}
	if a.abs < b.abs {
		return false
	}
	return a.col < b.col
}

// ilutScratch is the working storage of one NewILUT call, allocated once
// and reused by every row.
type ilutScratch struct {
	w      []float64 // dense accumulator of the current row
	marked []bool    // membership in the current row pattern
	// pending is a bitset of the lower-part columns still to eliminate.
	// Eliminating column k only adds columns of U's strict upper row k,
	// all > k, so the next column is always the lowest set bit at or
	// after the one just cleared: a forward cursor yields them in
	// ascending order, the order a heap would pop them in.
	pending      []uint64
	pattern      []int // every index marked while building the row
	lCand, uCand []ilutCand
}

// ilutBudget is the number of entries each half (strict lower, strict
// upper) of a factor row may keep for an input row of nnzRow entries.
func ilutBudget(fill float64, nnzRow int) int {
	return max(1, int(math.Ceil(fill*float64(nnzRow)/2)))
}

// NewILUT factors a with drop tolerance droptol (relative to each row's
// 2-norm) and fill ratio fill: row i of L and row i of U each keep at
// most ⌈fill·nnz(a_i)/2⌉ off-diagonal entries, so fill = 1 holds the two
// factors together to about the density of a. Column indices within a
// row of a must be distinct.
func NewILUT(a *sparse.CSR, droptol, fill float64) (*ILUT, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("aztec: ILUT requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if droptol < 0 {
		return nil, fmt.Errorf("aztec: ILUT drop tolerance must be non-negative, got %g", droptol)
	}
	if fill <= 0 {
		return nil, fmt.Errorf("aztec: ILUT fill ratio must be positive, got %g", fill)
	}
	n := a.Rows

	// Size L and U to the sum of the row budgets so the row loop never
	// regrows them. The hint is capped at a few times nnz(a): a fill ratio
	// chosen to mean "never cut" would otherwise ask for O(n²) up front.
	lCap, uCap := 0, 0
	for i := 0; i < n; i++ {
		b := ilutBudget(fill, a.RowPtr[i+1]-a.RowPtr[i])
		lCap += min(b, i)
		uCap += min(b, n-1-i)
	}
	hintMax := 4*a.NNZ() + n
	lCap, uCap = min(lCap, hintMax), min(uCap, hintMax)

	f := &ILUT{
		n:     n,
		lPtr:  make([]int, n+1),
		lCols: make([]int, 0, lCap),
		lVals: make([]float64, 0, lCap),
		uPtr:  make([]int, n+1),
		uCols: make([]int, 0, uCap),
		uVals: make([]float64, 0, uCap),
		uDiag: make([]float64, n),
	}
	s := ilutScratch{
		w:       make([]float64, n),
		marked:  make([]bool, n),
		pending: make([]uint64, (n+63)/64),
	}
	w, marked, pending := s.w, s.marked, s.pending

	for i := 0; i < n; i++ {
		cols, vals := a.RowView(i)
		rowNorm := sparse.Norm2(vals)
		if rowNorm == 0 {
			return nil, fmt.Errorf("aztec: ILUT: row %d: %w", i, ErrILUTZeroRow)
		}
		if math.IsNaN(rowNorm) || math.IsInf(rowNorm, 0) {
			return nil, fmt.Errorf("aztec: ILUT: row %d: %w", i, ErrILUTNonFinite)
		}
		tau := droptol * rowNorm
		budget := ilutBudget(fill, len(cols))

		s.pattern = s.pattern[:0]
		first := i // lowest pending column
		for k, j := range cols {
			w[j] = vals[k]
			marked[j] = true
			s.pattern = append(s.pattern, j)
			if j < i {
				pending[j>>6] |= 1 << (j & 63)
				first = min(first, j)
			}
		}

		// Eliminate lower-part entries in increasing column order. Bits
		// exist only for columns < i, and every pop clears its bit, so the
		// set is empty again when the cursor leaves the last word.
		for wi, end := first>>6, (i+63)>>6; wi < end; {
			word := pending[wi]
			if word == 0 {
				wi++
				continue
			}
			pending[wi] = word & (word - 1)
			k := wi<<6 | bits.TrailingZeros64(word)
			lik := w[k] / f.uDiag[k]
			if math.Abs(lik) <= tau {
				w[k] = 0
				marked[k] = false
				continue
			}
			w[k] = lik
			for p := f.uPtr[k]; p < f.uPtr[k+1]; p++ {
				j := f.uCols[p]
				if !marked[j] {
					marked[j] = true
					w[j] = 0
					s.pattern = append(s.pattern, j)
					if j < i {
						pending[j>>6] |= 1 << (j & 63)
					}
				}
				w[j] -= lik * f.uVals[p]
			}
		}

		// Stage the entries that survive the drop tolerance. Columns
		// dropped during elimination were unmarked but remain in pattern.
		s.lCand, s.uCand = s.lCand[:0], s.uCand[:0]
		for _, j := range s.pattern {
			if !marked[j] || j == i {
				continue
			}
			if av := math.Abs(w[j]); av > tau {
				if j < i {
					s.lCand = append(s.lCand, ilutCand{av, j})
				} else {
					s.uCand = append(s.uCand, ilutCand{av, j})
				}
			}
		}
		for _, c := range keepLargest(s.lCand, budget) {
			f.lCols = append(f.lCols, c.col)
			f.lVals = append(f.lVals, w[c.col])
		}
		f.lPtr[i+1] = len(f.lCols)

		diag := w[i]
		if diag == 0 {
			// Saad's fix-up: substitute a small pivot rather than failing,
			// keeping the preconditioner usable for nearly singular rows.
			diag = tau
			if diag == 0 {
				return nil, fmt.Errorf("aztec: ILUT: row %d: %w", i, ErrILUTZeroPivot)
			}
		}
		if math.IsNaN(diag) || math.IsInf(diag, 0) {
			return nil, fmt.Errorf("aztec: ILUT: row %d: %w", i, ErrILUTNonFinite)
		}
		f.uDiag[i] = diag
		for _, c := range keepLargest(s.uCand, budget) {
			f.uCols = append(f.uCols, c.col)
			f.uVals = append(f.uVals, w[c.col])
		}
		f.uPtr[i+1] = len(f.uCols)

		// Reset the accumulator and marks for the next row.
		for _, j := range s.pattern {
			w[j] = 0
			marked[j] = false
		}
	}
	f.tri = par.RowTri{
		LLo: f.lPtr[:n], LHi: f.lPtr[1:], LCols: f.lCols, LVals: f.lVals,
		ULo: f.uPtr[:n], UHi: f.uPtr[1:], UCols: f.uCols, UVals: f.uVals,
		Diag: f.uDiag,
	}
	return f, nil
}

// keepLargest returns the m candidates that come first under
// ilutCand.before (all of them when there are no more than m), sorted by
// column. It reorders c in place.
func keepLargest(c []ilutCand, m int) []ilutCand {
	if len(c) > m {
		selectFirst(c, m)
		c = c[:m]
	}
	slices.SortFunc(c, func(a, b ilutCand) int { return a.col - b.col })
	return c
}

// selectFirst permutes c so that c[:m] holds its m first elements under
// ilutCand.before, in no particular order: quickselect with a
// median-of-three pivot, O(len(c)) where a full sort is O(len·log len).
func selectFirst(c []ilutCand, m int) {
	lo, hi := 0, len(c)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if c[mid].before(c[lo]) {
			c[mid], c[lo] = c[lo], c[mid]
		}
		if c[hi].before(c[lo]) {
			c[hi], c[lo] = c[lo], c[hi]
		}
		if c[mid].before(c[hi]) {
			c[mid], c[hi] = c[hi], c[mid]
		}
		pivot := c[hi] // the median of the three
		p := lo
		for k := lo; k < hi; k++ {
			if c[k].before(pivot) {
				c[k], c[p] = c[p], c[k]
				p++
			}
		}
		c[p], c[hi] = c[hi], c[p]
		// c[lo:p] come before the pivot at p, c[p+1:hi+1] after it.
		switch {
		case p == m || p == m-1:
			return
		case p < m:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// Solve computes z = (LU)⁻¹ r; z and r may alias.
func (f *ILUT) Solve(z, r []float64) {
	if len(z) != f.n || len(r) != f.n {
		panic(fmt.Sprintf("aztec: ILUT.Solve: vectors must have length %d", f.n))
	}
	f.tri.Solve(nil, z, r)
}

// NNZ returns the stored entry count of both factors (plus diagonal).
func (f *ILUT) NNZ() int { return len(f.lVals) + len(f.uVals) + f.n }
