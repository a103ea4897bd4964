// Package aztec is the Trilinos-role solver package of this reproduction:
// an Epetra/AztecOO-shaped distributed linear solver library. Its API is
// deliberately different from package ksp the way Trilinos differs from
// PETSc — distribution is described by Map objects, matrices are assembled
// through InsertGlobalValues/FillComplete (or viewed over a pmat.Mat built
// elsewhere, Epetra's View mode) and accessed through the
// RowMatrix interface (the matrix-free hook the paper cites in §5.5), and
// the solver is driven by integer option and double parameter arrays
// (AZ_* constants) rather than string options. The LISI adapter must
// bridge both styles, which is exactly the adaptation work the paper
// measures.
package aztec

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/pmat"
)

// Map describes the distribution of a global vector/matrix dimension over
// the ranks, block-row style (Epetra_Map with contiguous GIDs).
type Map struct {
	layout *pmat.Layout
}

// NewMapWithLocal builds a map from each rank's local element count
// (collective).
func NewMapWithLocal(c *comm.Comm, numLocal int) (*Map, error) {
	l, err := pmat.NewLayout(c, numLocal)
	if err != nil {
		return nil, fmt.Errorf("aztec: NewMapWithLocal: %w", err)
	}
	return &Map{layout: l}, nil
}

// MapFromLayout wraps an existing block-row layout (local; no
// collective): the map of a matrix viewed over a pmat.Mat.
func MapFromLayout(l *pmat.Layout) *Map { return &Map{layout: l} }

// NumGlobalElements returns the global dimension.
func (m *Map) NumGlobalElements() int { return m.layout.N }

// NumMyElements returns this rank's local element count.
func (m *Map) NumMyElements() int { return m.layout.LocalN }

// MinMyGID returns the first global id owned by this rank.
func (m *Map) MinMyGID() int { return m.layout.Start }

// MyGID reports whether this rank owns the global id.
func (m *Map) MyGID(gid int) bool { return m.layout.Owns(gid) }

// Comm returns the communicator.
func (m *Map) Comm() *comm.Comm { return m.layout.Comm() }

// Layout exposes the underlying block-row layout.
func (m *Map) Layout() *pmat.Layout { return m.layout }
