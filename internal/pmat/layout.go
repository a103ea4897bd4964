// Package pmat provides block-row-distributed sparse matrices and vectors
// on top of the comm runtime. It plays the role PETSc's parallel Mat/Vec
// and Trilinos' Epetra_Map/Epetra_CrsMatrix play in the paper: every rank
// owns a contiguous block of global rows of the matrix and the conformal
// entries of all vectors, and a pre-built communication plan (the
// VecScatter role) exchanges ghost vector entries for parallel
// matrix–vector products.
//
// Block-row partitioning is the distribution the LISI interface assumes
// (paper §5.4), described by the four quantities its setter methods carry:
// start row, local rows, local nonzeros, global columns.
package pmat

import (
	"fmt"

	"repro/internal/comm"
)

// Layout describes a block-row partition of n global rows over the ranks
// of a communicator. Rank r owns global rows [Starts[r], Starts[r+1]).
type Layout struct {
	c      *comm.Comm
	N      int   // global rows
	Start  int   // first global row owned by this rank
	LocalN int   // number of rows owned by this rank
	Starts []int // length Size+1, Starts[0]=0, Starts[Size]=N
}

// NewLayout builds a layout from each rank's local row count (collective).
func NewLayout(c *comm.Comm, localN int) (*Layout, error) {
	if localN < 0 {
		return nil, fmt.Errorf("pmat: NewLayout: negative local row count %d", localN)
	}
	counts := c.AllGatherInt(localN)
	starts := make([]int, c.Size()+1)
	for r, n := range counts {
		starts[r+1] = starts[r] + n
	}
	return &Layout{
		c:      c,
		N:      starts[c.Size()],
		Start:  starts[c.Rank()],
		LocalN: localN,
		Starts: starts,
	}, nil
}

// EvenLayout partitions n rows as evenly as possible (the first n%P ranks
// get one extra row), the conventional block-row decomposition
// (collective).
func EvenLayout(c *comm.Comm, n int) (*Layout, error) {
	if n < 0 {
		return nil, fmt.Errorf("pmat: EvenLayout: negative global size %d", n)
	}
	p := c.Size()
	local := n / p
	if c.Rank() < n%p {
		local++
	}
	return NewLayout(c, local)
}

// Comm returns the communicator the layout was built on.
func (l *Layout) Comm() *comm.Comm { return l.c }

// Owns reports whether this rank owns global row i.
func (l *Layout) Owns(i int) bool {
	return i >= l.Start && i < l.Start+l.LocalN
}

// Conformal reports whether two layouts describe the same partition.
func (l *Layout) Conformal(o *Layout) bool {
	if l.N != o.N || len(l.Starts) != len(o.Starts) {
		return false
	}
	for i := range l.Starts {
		if l.Starts[i] != o.Starts[i] {
			return false
		}
	}
	return true
}
