package sparse

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed-sparse-row matrix: for row i the column indices are
// ColInd[RowPtr[i]:RowPtr[i+1]] with matching Vals. A CSR is canonical
// when every row's columns are strictly ascending (sorted and
// duplicate-free). NewCSR checks structure only — dimensions, row
// pointers, column range. Canonical establishes canonical form once,
// where outside rows enter (COO.ToCSR ends in it); pmat.NewMatRect
// checks it and splits the rows by column ownership in their order.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // length Rows+1
	ColInd     []int // length NNZ
	Vals       []float64
}

// NewCSR validates the raw arrays and returns a CSR wrapper. The arrays
// are used directly (not copied).
func NewCSR(rows, cols int, rowPtr, colInd []int, vals []float64) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: NewCSR: negative dimensions %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("sparse: NewCSR: rowPtr length %d, want %d", len(rowPtr), rows+1)
	}
	if rowPtr[0] != 0 {
		return nil, fmt.Errorf("sparse: NewCSR: rowPtr[0] = %d, want 0", rowPtr[0])
	}
	if len(colInd) != len(vals) {
		return nil, fmt.Errorf("sparse: NewCSR: colInd length %d != vals length %d", len(colInd), len(vals))
	}
	if rowPtr[rows] != len(colInd) {
		return nil, fmt.Errorf("sparse: NewCSR: rowPtr[end] = %d, want nnz %d", rowPtr[rows], len(colInd))
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("sparse: NewCSR: rowPtr not monotone at row %d", i)
		}
	}
	for _, j := range colInd {
		if j < 0 || j >= cols {
			return nil, fmt.Errorf("sparse: NewCSR: column index %d out of range [0,%d)", j, cols)
		}
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColInd: colInd, Vals: vals}, nil
}

// Canonical brings CSR arrays to canonical form in place and wraps them:
// a strictly ascending row is moved down unchanged, any other is sorted
// and its duplicates summed (from a snapshot, since writes may move left
// past unread entries). Column ranges are not checked. sort.Slice is
// unstable, so the order in which three or more duplicates of one entry
// are added — and the last bit of their sum — is whatever it makes of it.
func Canonical(rows, cols int, rowPtr, colInd []int, vals []float64) *CSR {
	var scratchIdx, order []int
	var scratchVal []float64
	w, lo := 0, 0
	for i := 0; i < rows; i++ {
		hi := rowPtr[i+1]
		ascending := true
		for k := lo + 1; k < hi && ascending; k++ {
			ascending = colInd[k-1] < colInd[k]
		}
		if ascending {
			copy(colInd[w:], colInd[lo:hi])
			copy(vals[w:], vals[lo:hi])
			w += hi - lo
		} else {
			scratchIdx = append(scratchIdx[:0], colInd[lo:hi]...)
			scratchVal = append(scratchVal[:0], vals[lo:hi]...)
			order = order[:0]
			for k := range scratchIdx {
				order = append(order, k)
			}
			sort.Slice(order, func(a, b int) bool { return scratchIdx[order[a]] < scratchIdx[order[b]] })
			prev := -1
			for _, k := range order {
				j := scratchIdx[k]
				if j == prev {
					vals[w-1] += scratchVal[k]
					continue
				}
				colInd[w] = j
				vals[w] = scratchVal[k]
				prev = j
				w++
			}
		}
		rowPtr[i+1] = w
		lo = hi
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColInd: colInd[:w], Vals: vals[:w]}
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Vals) }

// Clone returns a deep copy.
func (a *CSR) Clone() *CSR {
	rp := make([]int, len(a.RowPtr))
	copy(rp, a.RowPtr)
	ci := make([]int, len(a.ColInd))
	copy(ci, a.ColInd)
	v := make([]float64, len(a.Vals))
	copy(v, a.Vals)
	return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: rp, ColInd: ci, Vals: v}
}

// MulVec computes y = A*x.
func (a *CSR) MulVec(y, x []float64) {
	checkDims("CSR.MulVec x", a.Cols, len(x))
	checkDims("CSR.MulVec y", a.Rows, len(y))
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Vals[k] * x[a.ColInd[k]]
		}
		y[i] = s
	}
}

// MulVecAdd computes y += A*x.
func (a *CSR) MulVecAdd(y, x []float64) {
	checkDims("CSR.MulVecAdd x", a.Cols, len(x))
	checkDims("CSR.MulVecAdd y", a.Rows, len(y))
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Vals[k] * x[a.ColInd[k]]
		}
		y[i] += s
	}
}

// At returns A[i,j] using binary search within the row (0 if not stored).
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	k := lo + sort.SearchInts(a.ColInd[lo:hi], j)
	if k < hi && a.ColInd[k] == j {
		return a.Vals[k]
	}
	return 0
}

// Transpose returns Aᵀ as a new CSR.
func (a *CSR) Transpose() *CSR {
	nnz := a.NNZ()
	rp := make([]int, a.Cols+1)
	for _, j := range a.ColInd {
		rp[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		rp[j+1] += rp[j]
	}
	ci := make([]int, nnz)
	v := make([]float64, nnz)
	next := make([]int, a.Cols)
	copy(next, rp[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColInd[k]
			p := next[j]
			ci[p] = i
			v[p] = a.Vals[k]
			next[j]++
		}
	}
	return &CSR{Rows: a.Cols, Cols: a.Rows, RowPtr: rp, ColInd: ci, Vals: v}
}

// RowView returns the column indices and values of row i, aliasing the
// matrix storage. Callers must not modify the index slice.
func (a *CSR) RowView(i int) (cols []int, vals []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColInd[lo:hi], a.Vals[lo:hi]
}

// ScaleRows multiplies row i by d[i] in place.
func (a *CSR) ScaleRows(d []float64) {
	checkDims("CSR.ScaleRows", a.Rows, len(d))
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			a.Vals[k] *= d[i]
		}
	}
}

// Residual computes r = b − A·x into a new slice (a convenience used by
// solvers and tests).
func (a *CSR) Residual(b, x []float64) []float64 {
	r := make([]float64, a.Rows)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return r
}

// SubMatrix extracts the contiguous block with rows [r0,r1) and all
// columns, reusing value copies.
func (a *CSR) SubMatrix(r0, r1 int) *CSR {
	if r0 < 0 || r1 < r0 || r1 > a.Rows {
		panic(fmt.Sprintf("sparse: SubMatrix rows [%d,%d) out of range", r0, r1))
	}
	lo, hi := a.RowPtr[r0], a.RowPtr[r1]
	rp := make([]int, r1-r0+1)
	for i := range rp {
		rp[i] = a.RowPtr[r0+i] - lo
	}
	ci := make([]int, hi-lo)
	copy(ci, a.ColInd[lo:hi])
	v := make([]float64, hi-lo)
	copy(v, a.Vals[lo:hi])
	return &CSR{Rows: r1 - r0, Cols: a.Cols, RowPtr: rp, ColInd: ci, Vals: v}
}

// ToCOO converts to coordinate format.
func (a *CSR) ToCOO() *COO {
	c := NewCOO(a.Rows, a.Cols)
	c.Row = make([]int, 0, a.NNZ())
	c.Col = make([]int, 0, a.NNZ())
	c.Val = make([]float64, 0, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c.Row = append(c.Row, i)
			c.Col = append(c.Col, a.ColInd[k])
			c.Val = append(c.Val, a.Vals[k])
		}
	}
	return c
}

// Equal reports whether two matrices have identical dimensions, patterns
// and values. The comparison is exact on purpose: format round-trips must
// not alter a single value; AlmostEqual is the tolerance variant.
func (a *CSR) Equal(b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColInd {
		if a.ColInd[k] != b.ColInd[k] || a.Vals[k] != b.Vals[k] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether a and b have the same dimensions and
// max |a_ij − b_ij| ≤ tol (patterns may differ).
func (a *CSR) AlmostEqual(b *CSR, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	diff := 0.0
	seen := make(map[[2]int]float64)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			seen[[2]int{i, a.ColInd[k]}] = a.Vals[k]
		}
	}
	for i := 0; i < b.Rows; i++ {
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			key := [2]int{i, b.ColInd[k]}
			d := math.Abs(seen[key] - b.Vals[k])
			if d > diff {
				diff = d
			}
			delete(seen, key)
		}
	}
	for _, v := range seen {
		if math.Abs(v) > diff {
			diff = math.Abs(v)
		}
	}
	return diff <= tol
}
