package sparse

import (
	"fmt"
	"sort"
)

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

// NewCOOFromArrays validates and wraps pre-existing triplet arrays.
func NewCOOFromArrays(rows, cols int, ri, ci []int, v []float64) (*COO, error) {
	if len(ri) != len(ci) || len(ci) != len(v) {
		return nil, fmt.Errorf("sparse: NewCOOFromArrays: array lengths differ (%d, %d, %d)", len(ri), len(ci), len(v))
	}
	for k := range ri {
		if ri[k] < 0 || ri[k] >= rows || ci[k] < 0 || ci[k] >= cols {
			return nil, fmt.Errorf("sparse: NewCOOFromArrays: entry %d at (%d,%d) outside %dx%d", k, ri[k], ci[k], rows, cols)
		}
	}
	return &COO{Rows: rows, Cols: cols, Row: ri, Col: ci, Val: v}, nil
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
// within each row.
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
	for k := range c.Val {
		i := c.Row[k]
		p := next[i]
		ci[p] = c.Col[k]
		v[p] = c.Val[k]
		next[i]++
	}
	// Sort each row by column and merge duplicates, compacting through a
	// per-row scratch copy (writes may move left past unread entries, so
	// the row must be snapshotted first). A row that scattered strictly
	// ascending has nothing to sort or merge and is moved down as it is.
	// For the rest, sort.Slice is unstable, so the order in which three or
	// more duplicates of one entry are added — and with it the last bit
	// of their sum — is whatever the sort makes of it; that is left as it
	// has always been.
	outPtr := make([]int, c.Rows+1)
	var scratchIdx []int
	var scratchVal []float64
	w := 0
	for i := 0; i < c.Rows; i++ {
		lo, hi := rp[i], rp[i+1]
		n := hi - lo
		ascending := true
		for k := lo + 1; k < hi && ascending; k++ {
			ascending = ci[k-1] < ci[k]
		}
		if ascending {
			copy(ci[w:], ci[lo:hi])
			copy(v[w:], v[lo:hi])
			w += n
			outPtr[i+1] = w
			continue
		}
		scratchIdx = append(scratchIdx[:0], ci[lo:hi]...)
		scratchVal = append(scratchVal[:0], v[lo:hi]...)
		order := make([]int, n)
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool { return scratchIdx[order[a]] < scratchIdx[order[b]] })
		prev := -1
		for _, k := range order {
			j := scratchIdx[k]
			if j == prev {
				v[w-1] += scratchVal[k]
				continue
			}
			ci[w] = j
			v[w] = scratchVal[k]
			prev = j
			w++
		}
		outPtr[i+1] = w
	}
	return &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: outPtr, ColInd: ci[:w], Vals: v[:w]}
}
