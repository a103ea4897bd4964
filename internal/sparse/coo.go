package sparse

import "fmt"

// COO is a coordinate-format (triplet) matrix, the natural format for
// incremental assembly. Duplicate entries are permitted and are summed on
// conversion to CSR, matching finite-element assembly semantics.
type COO struct {
	Rows, Cols int
	Row, Col   []int
	Val        []float64
}

// NewCOO returns an empty COO matrix with the given dimensions.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Append adds one entry. Out-of-range indices panic: assembly code is
// expected to be correct by construction.
func (c *COO) Append(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("sparse: COO.Append (%d,%d) outside %dx%d", i, j, c.Rows, c.Cols))
	}
	c.Row = append(c.Row, i)
	c.Col = append(c.Col, j)
	c.Val = append(c.Val, v)
}

// ToCSR converts to CSR, summing duplicates and sorting column indices
// within each row: a counting scatter by row, which keeps each row's
// entries in the order they were appended, then Canonical.
func (c *COO) ToCSR() *CSR {
	nnz := len(c.Val)
	rp := make([]int, c.Rows+1)
	for _, i := range c.Row {
		rp[i+1]++
	}
	for i := 0; i < c.Rows; i++ {
		rp[i+1] += rp[i]
	}
	ci := make([]int, nnz)
	v := make([]float64, nnz)
	next := make([]int, c.Rows)
	copy(next, rp[:c.Rows])
	for k, i := range c.Row {
		ci[next[i]], v[next[i]] = c.Col[k], c.Val[k]
		next[i]++
	}
	return Canonical(c.Rows, c.Cols, rp, ci, v)
}
