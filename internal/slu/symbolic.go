package slu

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sparse"
)

// Symbolic is the value-independent half of a factorisation — what
// SuperLU keeps under SamePattern: the fill-reducing column permutation
// and column access to the pattern. Everything in it is a function of
// (RowPtr, ColInd, Ordering) alone, so reusing it for new values on an
// identical pattern cannot change a bit of the factors. Row pivoting and
// the structure of L and U depend on the values (threshold partial
// pivoting, exact-zero filtering); they are recorded in the LU a numeric
// phase finishes, and the next phase into that LU replays them for as
// long as the new values validate every decision (replay), rediscovering
// them (fullPass) from the first one that does not.
//
// A Symbolic also owns the numeric phase's scratch, so one Symbolic must
// not run two numeric phases at once.
type Symbolic struct {
	n        int
	ordering Ordering

	// The pattern analysed, copied so that a caller editing its matrix
	// in place cannot leave the analysis describing something else.
	rowPtr, colInd []int

	colPerm []int // q: factor column -> original column

	// Column access: the CSC structure of the pattern, and for CSR entry
	// k its CSC slot pos[k], so a numeric phase scatters the new values
	// instead of transposing the matrix again.
	colPtr, rowInd, pos []int

	// nnz(L) and nnz(U) of the last numeric phase, the capacity a fresh
	// LU starts from instead of doubling its way up from empty.
	lCap, uCap int

	// Numeric-phase scratch, sized by the pattern.
	vals                   []float64 // (scaled) values in CSC order
	colMax                 []float64
	x                      []float64
	marked                 []bool
	pattern, stack, pstack []int
}

// Analyze computes the symbolic phase for the pattern of a under the
// given column ordering.
func Analyze(a *sparse.CSR, o Ordering) (*Symbolic, error) {
	q, err := ComputeOrdering(a, o)
	if err != nil {
		return nil, err
	}
	n, nnz := a.Rows, len(a.ColInd)
	s := &Symbolic{
		n:        n,
		ordering: o,
		rowPtr:   slices.Clone(a.RowPtr),
		colInd:   slices.Clone(a.ColInd),
		colPerm:  q,
		colPtr:   make([]int, n+1),
		rowInd:   make([]int, nnz),
		pos:      make([]int, nnz),
		vals:     make([]float64, nnz),
		colMax:   make([]float64, n),
		x:        make([]float64, n),
		marked:   make([]bool, n),
		pattern:  make([]int, 0, 64),
		stack:    make([]int, 0, 64),
		pstack:   make([]int, 0, 64),
	}
	// The counting sort of CSR.Transpose: each column keeps its entries
	// in row-major order, the order the numeric phase visits them in.
	for _, j := range a.ColInd {
		s.colPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		s.colPtr[j+1] += s.colPtr[j]
	}
	next := slices.Clone(s.colPtr[:n])
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			p := next[a.ColInd[k]]
			next[a.ColInd[k]]++
			s.rowInd[p] = i
			s.pos[k] = p
		}
	}
	return s, nil
}

// matches reports whether s was computed for exactly a's pattern and
// ordering o. The comparison is entry by entry — O(nnz), microseconds
// beside a numeric phase — so there is no hash and no collision case.
func (s *Symbolic) matches(a *sparse.CSR, o Ordering) bool {
	return o == s.ordering && a.Rows == s.n && a.Cols == s.n &&
		slices.Equal(a.RowPtr, s.rowPtr) && slices.Equal(a.ColInd, s.colInd)
}

// scatter writes a's values, equilibrated when asked, into s.vals in
// column order through the position map, and records the scalings in f.
// The scalings bring the largest entry of every row and column of
// dr·A·dc to about 1, as SuperLU's sgsequ does; each value sees the two
// multiplies an in-place row scale followed by a column scale would give
// it.
func (s *Symbolic) scatter(f *LU, a *sparse.CSR, equilibrate bool) error {
	n, vals, pos := s.n, s.vals, s.pos
	if !equilibrate {
		f.dr, f.dc = nil, nil
		for k, v := range a.Vals {
			vals[pos[k]] = v
		}
	} else {
		dr := slices.Grow(f.dr[:0], n)[:n]
		dc := slices.Grow(f.dc[:0], n)[:n]
		colMax := s.colMax
		clear(colMax)
		for i := 0; i < n; i++ {
			lo, hi := a.RowPtr[i], a.RowPtr[i+1]
			m := 0.0
			for _, v := range a.Vals[lo:hi] {
				if av := math.Abs(v); av > m {
					m = av
				}
			}
			if m == 0 {
				return fmt.Errorf("slu: equilibrate: row %d is entirely zero", i)
			}
			dr[i] = 1 / m
			for k := lo; k < hi; k++ {
				v := a.Vals[k] * dr[i]
				vals[pos[k]] = v
				if av := math.Abs(v); av > colMax[a.ColInd[k]] {
					colMax[a.ColInd[k]] = av
				}
			}
		}
		for j := 0; j < n; j++ {
			if colMax[j] == 0 {
				return fmt.Errorf("slu: equilibrate: column %d is entirely zero", j)
			}
			dc[j] = 1 / colMax[j]
			for p := s.colPtr[j]; p < s.colPtr[j+1]; p++ {
				vals[p] *= dc[j]
			}
		}
		f.dr, f.dc = dr, dc
	}
	return nil
}
