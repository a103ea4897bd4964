package aztec

import (
	"fmt"

	"repro/internal/pmat"
	"repro/internal/sparse"
)

// Operator is anything that can apply y = A·x on conformally distributed
// vectors — the Epetra_Operator role. Matrix-free applications implement
// this (or RowMatrix) directly and hand it to the solver, which is how
// Trilinos supports the paper's §5.5 matrix-free requirement.
type Operator interface {
	// RowMap returns the distribution of rows (and of both vectors).
	RowMap() *Map
	// Apply computes y = A·x (collective). x and y are local blocks.
	Apply(y, x []float64) error
}

// RowMatrix extends Operator with row access, the Epetra_RowMatrix role.
// Preconditioners require row access; plain Operators can only be solved
// unpreconditioned.
type RowMatrix interface {
	Operator
	// ExtractGlobalRowCopy returns copies of the column indices (global)
	// and values of one owned global row.
	ExtractGlobalRowCopy(globalRow int) (indices []int, values []float64, err error)
	// ExtractDiagonalCopy returns the local part of the main diagonal.
	ExtractDiagonalCopy() ([]float64, error)
}

// CrsMatrix is the assembled distributed matrix (Epetra_CrsMatrix role):
// entries are inserted by global index row-by-row, then FillComplete
// freezes the pattern and builds the communication plan — or, in View
// mode, it wraps a distributed matrix built elsewhere.
type CrsMatrix struct {
	rowMap *Map
	// staging area before FillComplete: per-local-row column/value lists.
	stageCols [][]int
	stageVals [][]float64
	dist      *pmat.Mat // nil until filled
}

// NewCrsMatrix creates an empty matrix over the given row map.
func NewCrsMatrix(rowMap *Map) *CrsMatrix {
	n := rowMap.NumMyElements()
	return &CrsMatrix{
		rowMap:    rowMap,
		stageCols: make([][]int, n),
		stageVals: make([][]float64, n),
	}
}

// NewCrsMatrixView returns a filled matrix over an existing distributed
// matrix, Epetra's View mode: no rows are copied or inserted, and the
// matrix and its row map share dist and dist's layout (local; no
// collective).
func NewCrsMatrixView(dist *pmat.Mat) *CrsMatrix {
	return &CrsMatrix{rowMap: MapFromLayout(dist.L), dist: dist}
}

// InsertGlobalValues appends entries to an owned global row; duplicate
// column entries are summed at FillComplete.
func (a *CrsMatrix) InsertGlobalValues(globalRow int, cols []int, vals []float64) error {
	if a.dist != nil {
		return fmt.Errorf("aztec: InsertGlobalValues after FillComplete")
	}
	if len(cols) != len(vals) {
		return fmt.Errorf("aztec: InsertGlobalValues: %d columns but %d values", len(cols), len(vals))
	}
	if !a.rowMap.MyGID(globalRow) {
		return fmt.Errorf("aztec: InsertGlobalValues: row %d not owned by rank %d", globalRow, a.rowMap.Comm().Rank())
	}
	n := a.rowMap.NumGlobalElements()
	for _, j := range cols {
		if j < 0 || j >= n {
			return fmt.Errorf("aztec: InsertGlobalValues: column %d outside [0,%d)", j, n)
		}
	}
	lr := globalRow - a.rowMap.MinMyGID()
	a.stageCols[lr] = append(a.stageCols[lr], cols...)
	a.stageVals[lr] = append(a.stageVals[lr], vals...)
	return nil
}

// FillComplete freezes the pattern, merges duplicates, and builds the
// distributed communication plan (collective). The staged rows are
// concatenated and normalised (sparse.Canonical): rows inserted in
// strictly ascending column order pass through as they are.
func (a *CrsMatrix) FillComplete() error {
	if a.dist != nil {
		return fmt.Errorf("aztec: FillComplete called twice")
	}
	l := a.rowMap.Layout()
	n := len(a.stageCols)
	rp := make([]int, n+1)
	for lr, row := range a.stageCols {
		rp[lr+1] = rp[lr] + len(row)
	}
	ci := make([]int, rp[n])
	v := make([]float64, rp[n])
	for lr := range a.stageCols {
		copy(ci[rp[lr]:], a.stageCols[lr])
		copy(v[rp[lr]:], a.stageVals[lr])
	}
	dist, err := pmat.NewMat(l, sparse.Canonical(n, l.N, rp, ci, v))
	if err != nil {
		return fmt.Errorf("aztec: FillComplete: %w", err)
	}
	a.dist = dist
	a.stageCols, a.stageVals = nil, nil
	return nil
}

// RowMap returns the row distribution.
func (a *CrsMatrix) RowMap() *Map { return a.rowMap }

// Apply computes y = A·x (collective).
func (a *CrsMatrix) Apply(y, x []float64) error {
	if a.dist == nil {
		return fmt.Errorf("aztec: Apply before FillComplete")
	}
	a.dist.Apply(y, x)
	return nil
}

// ExtractGlobalRowCopy returns copies of one owned row's global column
// indices and values.
func (a *CrsMatrix) ExtractGlobalRowCopy(globalRow int) ([]int, []float64, error) {
	if a.dist == nil {
		return nil, nil, fmt.Errorf("aztec: ExtractGlobalRowCopy before FillComplete")
	}
	if !a.rowMap.MyGID(globalRow) {
		return nil, nil, fmt.Errorf("aztec: ExtractGlobalRowCopy: row %d not owned", globalRow)
	}
	ci, v := a.dist.RowGlobal(globalRow - a.rowMap.MinMyGID())
	return ci, v, nil
}

// ExtractDiagonalCopy returns the local diagonal.
func (a *CrsMatrix) ExtractDiagonalCopy() ([]float64, error) {
	if a.dist == nil {
		return nil, fmt.Errorf("aztec: ExtractDiagonalCopy before FillComplete")
	}
	return a.dist.Diagonal(), nil
}

// Dist exposes the underlying distributed matrix (used by
// preconditioners that need the local diagonal block).
func (a *CrsMatrix) Dist() *pmat.Mat { return a.dist }

// rowMatrixDiagBlock extracts the local diagonal block of a RowMatrix. A
// filled CrsMatrix hands out its distributed matrix's own interior block,
// which callers only read; anything else is read through the public
// row-access interface, so user-defined RowMatrix implementations can be
// preconditioned too.
func rowMatrixDiagBlock(m RowMatrix) (*sparse.CSR, error) {
	if crs, ok := m.(*CrsMatrix); ok && crs.dist != nil {
		return crs.dist.DiagBlock(), nil
	}
	return genericDiagBlock(m)
}

// genericDiagBlock reads the block through ExtractGlobalRowCopy; a user
// RowMatrix's rows are outside input, in any order, so they go through
// COO.
func genericDiagBlock(m RowMatrix) (*sparse.CSR, error) {
	rm := m.RowMap()
	lo, n := rm.MinMyGID(), rm.NumMyElements()
	coo := sparse.NewCOO(n, n)
	for lr := 0; lr < n; lr++ {
		cols, vals, err := m.ExtractGlobalRowCopy(lo + lr)
		if err != nil {
			return nil, err
		}
		for k, j := range cols {
			if j >= lo && j < lo+n {
				coo.Append(lr, j-lo, vals[k])
			}
		}
	}
	return coo.ToCSR(), nil
}
