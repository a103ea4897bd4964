package pmat

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/par"
	"repro/internal/sparse"
)

// tag space reserved for ghost exchange messages.
const tagGhost = 0x7a00

// Mat is a square sparse matrix distributed by block rows: each rank holds
// its own rows, split by column ownership. Vectors are distributed
// conformally with the row layout. A communication plan built at
// construction exchanges the off-process ("ghost") vector entries needed
// by the local rows, so Apply performs one message round per product —
// the structure of a distributed-memory SpMV.
type Mat struct {
	L *Layout

	// C is the column/input-vector layout; equal to L for square
	// matrices, distinct for rectangular operators such as multigrid
	// restriction and prolongation.
	C *Layout

	// interior and boundary are the local rows, split by column
	// ownership so Apply can overlap the ghost exchange with the interior
	// product: interior holds the entries whose columns this rank owns
	// (re-indexed to [0, C.LocalN)), boundary the entries referencing
	// ghost columns (re-indexed to their slot in ghostCols). They are the
	// matrix's one stored form: both are filled at construction, each
	// row in the order it came in, and every other view is read off them.
	interior *sparse.CSR
	boundary *sparse.CSR

	// ghostCols are the global column indices this rank needs but does
	// not own, sorted ascending.
	ghostCols []int

	// halo exchanges the ghost values before each product; ghostVals
	// receives them, in ghostCols order.
	halo      *Halo
	ghostVals []float64

	rres []float64 // scratch for Residual

	// pool is the intra-rank worker pool for the row-parallel products
	// (nil = serial). intSpMV/bndSpMV are the persistent kernels bound
	// to interior and boundary, each in the storage format the format
	// rule picks for its block (sparse.ParSpMV.Bind), so Apply
	// allocates nothing; unit partitioning keeps every product
	// bitwise-identical to the serial CSR path for either format and
	// any worker count.
	pool    *par.Pool
	intSpMV sparse.ParSpMV
	bndSpMV sparse.ParSpMV

	// format is ChoiceAuto (the rule) unless a test or benchmark asked
	// for the CSR reference. The kernels are bound on first use — the
	// first SetPool, SetFormat or Apply — not at construction, so a
	// matrix is converted once, for the pool it will run on, and a
	// matrix that is only gathered (the direct solver's) never is.
	// bound records that they match (format, pool).
	format sparse.FormatChoice
	bound  bool
}

// FormatInfo reports which kernels are bound, for the sparse.format
// telemetry label.
type FormatInfo struct {
	Interior sparse.Format // format bound to the interior (owned-column) block
	Boundary sparse.Format // format bound to the ghost-column block
}

// SetPool attaches an intra-rank worker pool to the row-parallel
// products (nil restores the serial path). The pool is caller-owned:
// the matrix never closes it. Idempotent and cheap, so components may
// call it every solve. A pool change re-binds the kernels: the SELL
// chunk height and per-slot scratch are tuned to the worker count.
func (m *Mat) SetPool(p *par.Pool) {
	if m.bound && m.pool == p {
		return
	}
	m.pool = p
	m.rebind()
}

// SetFormat is the programmatic hook of tests and benchmarks
// (local-only, no collectives): sparse.ChoiceCSR binds the reference
// CSR kernels, sparse.ChoiceAuto — what every matrix does on its own —
// the format rule's. Re-applying the bound choice is an
// allocation-free no-op; the returned bool reports whether a (re)bind
// happened.
func (m *Mat) SetFormat(fc sparse.FormatChoice) (FormatInfo, bool) {
	changed := !m.bound || fc != m.format
	if changed {
		m.format = fc
		m.rebind()
	}
	return m.Format(), changed
}

// Format reports the kernels bound to the interior and boundary
// blocks, binding them first if nothing has yet.
func (m *Mat) Format() FormatInfo {
	if !m.bound {
		m.rebind()
	}
	return FormatInfo{Interior: m.intSpMV.Format(), Boundary: m.bndSpMV.Format()}
}

// rebind (re)binds the interior/boundary kernels for the current
// (format, pool) pair.
func (m *Mat) rebind() {
	workers := 1
	if m.pool != nil {
		workers = m.pool.Workers()
	}
	m.intSpMV.Bind(m.interior, false, m.format, workers)
	m.bndSpMV.Bind(m.boundary, true, m.format, workers)
	m.bound = true
}

// NewMat builds a square distributed matrix from this rank's local rows
// (collective). localRows must have Rows == l.LocalN and Cols == l.N, with
// global column indices. The CSR arrays are not retained: the rows are
// copied into the split form Apply reads.
func NewMat(l *Layout, localRows *sparse.CSR) (*Mat, error) {
	return NewMatRect(l, l, localRows)
}

// NewMatRect builds a rectangular distributed matrix whose rows follow
// rowL and whose input vectors follow colL (collective). localRows must
// have Rows == rowL.LocalN and Cols == colL.N, with global column
// indices, and be canonical (every row's columns strictly ascending):
// the interior and boundary blocks are order-preserving filters of these
// rows, filled in one count pass and one fill pass.
func NewMatRect(rowL, colL *Layout, localRows *sparse.CSR) (*Mat, error) {
	if localRows.Rows != rowL.LocalN {
		return nil, fmt.Errorf("pmat: NewMatRect: local matrix has %d rows, layout owns %d", localRows.Rows, rowL.LocalN)
	}
	if localRows.Cols != colL.N {
		return nil, fmt.Errorf("pmat: NewMatRect: local matrix has %d cols, want global size %d", localRows.Cols, colL.N)
	}
	a := localRows
	if _, err := sparse.NewCSR(a.Rows, a.Cols, a.RowPtr, a.ColInd, a.Vals); err != nil {
		return nil, fmt.Errorf("pmat: NewMatRect: %v", err)
	}
	m := &Mat{L: rowL, C: colL}

	// Count pass: check the order, count each row's owned entries and
	// collect the ghost columns, sorted and distinct.
	rows := a.Rows
	intPtr, bndPtr := make([]int, rows+1), make([]int, rows+1)
	for i := 0; i < rows; i++ {
		cols, _ := a.RowView(i)
		owned := 0
		for k, j := range cols {
			if k > 0 && cols[k-1] >= j {
				return nil, fmt.Errorf("pmat: NewMatRect: row %d columns not strictly ascending (%d then %d)", i, cols[k-1], j)
			}
			if colL.Owns(j) {
				owned++
			} else {
				m.ghostCols = append(m.ghostCols, j)
			}
		}
		intPtr[i+1] = intPtr[i] + owned
		bndPtr[i+1] = bndPtr[i] + len(cols) - owned
	}
	sort.Ints(m.ghostCols)
	m.ghostCols = slices.Compact(m.ghostCols)

	// Fill pass: owned columns shift down to [0, LocalN), ghost columns
	// become their slot. Both maps are monotone, so rows stay ascending.
	nInt, nBnd := intPtr[rows], bndPtr[rows]
	m.interior = &sparse.CSR{Rows: rows, Cols: colL.LocalN, RowPtr: intPtr, ColInd: make([]int, nInt), Vals: make([]float64, nInt)}
	m.boundary = &sparse.CSR{Rows: rows, Cols: len(m.ghostCols), RowPtr: bndPtr, ColInd: make([]int, nBnd), Vals: make([]float64, nBnd)}
	p, q := 0, 0
	for k, j := range a.ColInd {
		if colL.Owns(j) {
			m.interior.ColInd[p], m.interior.Vals[p] = j-colL.Start, a.Vals[k]
			p++
		} else {
			m.boundary.ColInd[q], m.boundary.Vals[q] = sort.SearchInts(m.ghostCols, j), a.Vals[k]
			q++
		}
	}

	m.halo = NewHalo(colL, m.ghostCols, tagGhost)
	m.ghostVals = make([]float64, len(m.ghostCols))
	return m, nil
}

// NumGhosts returns the number of off-process columns this rank needs.
func (m *Mat) NumGhosts() int { return len(m.ghostCols) }

// Apply computes y = A·x for conformally distributed x and y
// (collective). It overlaps communication with computation in the
// standard way: ghost values are posted first, the interior product
// (owned columns only) runs while they are in flight, and the boundary
// product is added once they arrive. x must not alias y.
func (m *Mat) Apply(y, x []float64) {
	if len(x) != m.C.LocalN || len(y) != m.L.LocalN {
		panic(fmt.Sprintf("pmat: Apply: local vectors must have lengths %d (in) and %d (out)", m.C.LocalN, m.L.LocalN))
	}
	if !m.bound {
		m.rebind()
	}
	// Post the ghost values first; sends never block, so this cannot
	// deadlock.
	m.halo.Post(x)

	// Interior product while the ghost values travel. The persistent
	// kernel carries whatever format the rule bound; it is partitioned
	// per worker yet bitwise-identical to the serial CSR product for
	// either format and any worker count (a nil pool runs it inline),
	// and comm stays on this goroutine either way.
	m.intSpMV.Apply(m.pool, y, x)

	// Collect the ghosts and add the boundary contribution.
	m.halo.Wait(m.ghostVals)
	if m.boundary.NNZ() > 0 {
		m.bndSpMV.Apply(m.pool, y, m.ghostVals)
	}
}

// DiagBlock returns this rank's diagonal block (rows and columns it owns)
// as a LocalN×LocalN CSR — the operator block-Jacobi style preconditioners
// factor. It is the matrix's own interior block, not a copy: callers
// must treat it as read-only.
func (m *Mat) DiagBlock() *sparse.CSR {
	if m.L != m.C {
		panic("pmat: DiagBlock requires a square matrix")
	}
	return m.interior
}

// Diagonal returns the local portion of the global main diagonal.
func (m *Mat) Diagonal() []float64 {
	if m.L != m.C {
		panic("pmat: Diagonal requires a square matrix")
	}
	d := make([]float64, m.L.LocalN)
	for i := range d {
		cols, vals := m.interior.RowView(i)
		for k, j := range cols {
			if j == i {
				d[i] = vals[k]
				break
			}
		}
	}
	return d
}

// appendRowGlobal appends local row i, with global column indices, to ci
// and v. The row is read back in three runs — the ghost columns below
// the owned range, the owned columns, the ghost columns above it — which
// is the canonical row that went in, since ghost slots follow global
// column order.
func (m *Mat) appendRowGlobal(ci []int, v []float64, i int) ([]int, []float64) {
	ic, iv := m.interior.RowView(i)
	bc, bv := m.boundary.RowView(i)
	below := 0
	for below < len(bc) && m.ghostCols[bc[below]] < m.C.Start {
		below++
	}
	for _, s := range bc[:below] {
		ci = append(ci, m.ghostCols[s])
	}
	for _, j := range ic {
		ci = append(ci, j+m.C.Start)
	}
	for _, s := range bc[below:] {
		ci = append(ci, m.ghostCols[s])
	}
	return ci, append(append(append(v, bv[:below]...), iv...), bv[below:]...)
}

// RowGlobal returns copies of local row i's global column indices and
// values.
func (m *Mat) RowGlobal(i int) ([]int, []float64) {
	n := m.interior.RowPtr[i+1] - m.interior.RowPtr[i] + m.boundary.RowPtr[i+1] - m.boundary.RowPtr[i]
	return m.appendRowGlobal(make([]int, 0, n), make([]float64, 0, n), i)
}

// LocalRowsGlobal reconstructs this rank's rows with global column
// indices.
func (m *Mat) LocalRowsGlobal() *sparse.CSR {
	rows, nnz := m.L.LocalN, m.interior.NNZ()+m.boundary.NNZ()
	rp, ci, v := make([]int, rows+1), make([]int, 0, nnz), make([]float64, 0, nnz)
	for i := 0; i < rows; i++ {
		ci, v = m.appendRowGlobal(ci, v, i)
		rp[i+1] = len(ci)
	}
	return &sparse.CSR{Rows: rows, Cols: m.C.N, RowPtr: rp, ColInd: ci, Vals: v}
}

// GatherGlobal assembles the full matrix on every rank (collective). This
// is the substitution path used by the direct-solver package, standing in
// for a distributed factorization; it is documented in DESIGN.md. Block
// rows are contiguous in rank order, so the global CSR is the rank-order
// concatenation of every rank's row lengths, columns and values.
func (m *Mat) GatherGlobal() *sparse.CSR {
	l := m.L
	loc := m.LocalRowsGlobal()
	lens := make([]int, loc.Rows)
	for i := range lens {
		lens[i] = loc.RowPtr[i+1] - loc.RowPtr[i]
	}
	allLens := l.c.AllGatherVInts(lens)
	rp := make([]int, l.N+1)
	for i, n := range allLens {
		rp[i+1] = rp[i] + n
	}
	return &sparse.CSR{
		Rows: l.N, Cols: m.C.N, RowPtr: rp,
		ColInd: l.c.AllGatherVInts(loc.ColInd),
		Vals:   l.c.AllGatherVFloat64s(loc.Vals),
	}
}

// Residual computes the global 2-norm of b − A·x (collective). The
// residual vector lives in matrix-owned scratch, reused across calls.
func (m *Mat) Residual(b, x []float64) float64 {
	if m.rres == nil {
		m.rres = make([]float64, m.L.LocalN)
	}
	r := m.rres
	m.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return Norm2(m.L.c, r)
}
