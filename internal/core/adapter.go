package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/aztec"
	"repro/internal/cca"
	"repro/internal/comm"
	"repro/internal/par"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// Instrumented is implemented by components (and the driver) that
// accept a telemetry recorder. Call sites discover it by type
// assertion so the SIDL-transcribed SparseSolver interface stays
// exactly the paper's.
type Instrumented interface {
	SetRecorder(*telemetry.Recorder)
}

// baseAdapter carries the state machine every LISI solver component
// shares: the distribution parameters set through the §6.3 setters, the
// staged operator and right-hand sides, the generic parameter store, and
// the one Solve skeleton (solve). The package-specific components embed
// it and add their translation tables and the skeleton's hooks.
//
// The staged operator is one slot, and the last staging call wins: a
// SetupMatrix* door that succeeds replaces a MatrixFree port, set or
// pulled; SetMatrixFree(mf) supersedes the matrix, and SetMatrixFree(nil)
// goes back to it; a framework-wired port is pulled only while nothing is
// staged; a refused call changes nothing.
type baseAdapter struct {
	name string // component display name for GetAll / errors

	matrixFree bool // the backend solves on the shell (else ErrUnsupported)

	c   *comm.Comm
	svc cca.Services

	blockSize  int
	startRow   int
	localRows  int
	localNNZ   int
	globalCols int

	// localA holds this rank's staged rows with global column indices
	// until operator turns them into op.
	localA *sparse.CSR
	matVer int // bumped on every SetupMatrix*, drives factor reuse
	rhs    []float64
	nRhs   int
	params map[string]string
	mf     MatrixFree // the slot's port; nil: the last staged matrix
	shell  *shellOp   // over mf, at the last Solve's layout

	// vocab is the embedding backend's declared vocabulary (§6.5),
	// the shared "workers" row included.
	vocab []Param

	// cfgVer is bumped whenever a parameter the backend is built from or
	// the MatrixFree port changes; the skeleton reconfigures the backend when it or the
	// communicator moved past cfgDone/cfgComm, so a steady-state Solve
	// reuses the solver (and its internal workspaces).
	cfgVer  int
	cfgDone int
	cfgComm *comm.Comm

	// distVer is bumped by Initialize and the §6.3 distribution setters.
	// Because those calls are SPMD-symmetric (every rank makes the same
	// sequence of calls), the version is identical across ranks, which
	// makes the layout cache below rank-symmetric: either all ranks hit
	// it, or all ranks enter the collective pmat.NewLayout together.
	distVer   int
	layout    *pmat.Layout
	layoutVer int

	// op is the distributed operator built from localA on the cached
	// layout, at matrix version opVer (see operator); once built, it is
	// the port's only copy of the matrix.
	op    *pmat.Mat
	opVer int

	// built is the slot value the backend was last rebuilt on; a Solve
	// whose slot differs rebuilds, and counts a factorization.
	built          staged
	factorizations int // cumulative setup count reported in Status

	// pool is the intra-rank worker pool built from the "workers"
	// parameter (nil while the parameter is absent — the legacy serial
	// path). poolW keys the cached pool on the requested worker count so
	// a steady-state Solve reuses it; lastDispatch/lastInline remember
	// the pool's cumulative counters so per-solve telemetry deltas can
	// be derived without resetting them.
	pool         *par.Pool
	poolW        int
	lastDispatch int64
	lastInline   int64

	rec *telemetry.Recorder
}

// SetRecorder attaches a telemetry recorder to the component: adapter
// conversion work (SetupMatrix*, SetupRHS staging) is timed into
// PhasePortOverhead, operator construction into PhaseSetup, and the
// backend's own phases/residuals flow through the same recorder. Nil
// (the default) disables instrumentation at one nil check per event.
func (b *baseAdapter) SetRecorder(r *telemetry.Recorder) { b.rec = r }

func newBaseAdapter(name string, vocab []Param, matrixFree bool) baseAdapter {
	return baseAdapter{
		name:       name,
		matrixFree: matrixFree,
		vocab:      vocab,
		blockSize:  1,
		startRow:   -1,
		localRows:  -1,
		localNNZ:   -1,
		globalCols: -1,
		params:     make(map[string]string),
	}
}

// SetServices implements cca.Component for all solver components: each
// provides the SparseSolver port and registers a uses port for the
// application's optional MatrixFree port. The concrete component must be
// passed since the provides port is the component itself.
func (b *baseAdapter) setServices(svc cca.Services, self SparseSolver) error {
	b.svc = svc
	if err := svc.AddProvidesPort(self, PortSparseSolver, PortTypeSparseSolver); err != nil {
		return err
	}
	if err := svc.RegisterUsesPort(PortMatrixFree, PortTypeMatrixFree); err != nil {
		return err
	}
	// Components default to the framework's communicator; Initialize may
	// override it.
	b.c = svc.Comm()
	return nil
}

// ---- distribution setters (§6.3) ----

// Initialize implements SparseSolver.
func (b *baseAdapter) Initialize(c *comm.Comm) int {
	if c == nil {
		return ErrBadArg
	}
	b.c = c
	b.distVer++
	return OK
}

// SetBlockSize implements SparseSolver.
func (b *baseAdapter) SetBlockSize(bs int) int {
	if bs < 1 {
		return ErrBadArg
	}
	b.blockSize = bs
	return OK
}

// SetStartRow implements SparseSolver (§6.3).
func (b *baseAdapter) SetStartRow(startRow int) int {
	if startRow < 0 {
		return ErrBadArg
	}
	b.startRow = startRow
	b.distVer++
	return OK
}

// SetLocalRows implements SparseSolver (§6.3).
func (b *baseAdapter) SetLocalRows(rows int) int {
	if rows < 0 {
		return ErrBadArg
	}
	b.localRows = rows
	b.distVer++
	return OK
}

// SetLocalNNZ implements SparseSolver (§6.3).
func (b *baseAdapter) SetLocalNNZ(nnz int) int {
	if nnz < 0 {
		return ErrBadArg
	}
	b.localNNZ = nnz
	return OK
}

// SetGlobalCols implements SparseSolver (§6.3).
func (b *baseAdapter) SetGlobalCols(cols int) int {
	if cols < 0 {
		return ErrBadArg
	}
	b.globalCols = cols
	b.distVer++
	return OK
}

func (b *baseAdapter) distributionReady() bool {
	return b.startRow >= 0 && b.localRows >= 0 && b.globalCols >= 0
}

// ---- matrix staging: the adapter role of setupMatrix (§7.2) ----

// SetupMatrixCOO implements the setupMatrix[few_args] overload.
func (b *baseAdapter) SetupMatrixCOO(values []float64, rows, cols []int, nnz int) int {
	return b.SetupMatrixOffset(values, rows, cols, COO, nnz, nnz, 0)
}

// SetupMatrix implements the setupMatrix[media_args] overload.
func (b *baseAdapter) SetupMatrix(values []float64, rows, cols []int, ds SparseStruct, rowsLength, nnz int) int {
	return b.SetupMatrixOffset(values, rows, cols, ds, rowsLength, nnz, 0)
}

// SetupMatrixOffset converts the caller's arrays — in any supported
// SparseStruct, with any index base — into the component's internal
// local-CSR staging form. This is precisely the adapter work the paper
// assigns to the interface implementation ("it works as an adapter to
// convert the input data format to the libraries' internal data
// structure"). A NaN or ±Inf entry is ErrBadArg: every format's loop
// reads each value once, and a rejection there leaves the previously
// staged matrix whole.
func (b *baseAdapter) SetupMatrixOffset(values []float64, rows, cols []int, ds SparseStruct, rowsLength, nnz, offset int) int {
	defer b.rec.StartPhase(telemetry.PhasePortOverhead)()
	b.rec.Add("lisi.setup_matrix_calls", 1)
	if b.c == nil {
		return ErrBadState
	}
	if !b.distributionReady() {
		return ErrBadState
	}
	if values == nil || rows == nil {
		return ErrBadArg
	}
	if b.localNNZ >= 0 && nnz != b.localNNZ {
		return ErrBadArg
	}
	var a *sparse.CSR
	switch ds {
	case COO:
		if len(values) < nnz || len(rows) < nnz || cols == nil || len(cols) < nnz {
			return ErrBadArg
		}
		local := sparse.NewCOO(b.localRows, b.globalCols)
		for k := 0; k < nnz; k++ {
			gi := rows[k] - offset
			gj := cols[k] - offset
			li := gi - b.startRow
			if li < 0 || li >= b.localRows || gj < 0 || gj >= b.globalCols || !finite(values[k]) {
				return ErrBadArg
			}
			local.Append(li, gj, values[k])
		}
		a = local.ToCSR()
	case CSR:
		if rowsLength != b.localRows+1 || len(rows) < rowsLength {
			return ErrBadArg
		}
		if len(values) < nnz || cols == nil || len(cols) < nnz {
			return ErrBadArg
		}
		if rows[0]-offset != 0 || rows[b.localRows]-offset != nnz {
			return ErrBadArg
		}
		rp := make([]int, b.localRows+1)
		ci := make([]int, nnz)
		for li := 0; li < b.localRows; li++ {
			lo, hi := rows[li]-offset, rows[li+1]-offset
			if lo > hi || hi > nnz {
				return ErrBadArg
			}
			for k := lo; k < hi; k++ {
				gj := cols[k] - offset
				if gj < 0 || gj >= b.globalCols || !finite(values[k]) {
					return ErrBadArg
				}
				ci[k] = gj
			}
			rp[li+1] = hi
		}
		a = sparse.Canonical(b.localRows, b.globalCols, rp, ci, append([]float64(nil), values[:nnz]...))
	case MSR:
		// values/rows are the combined MSR arrays: values[0:localRows]
		// is the diagonal, rows[i] points at row i's off-diagonals, and
		// rows[k] for k ≥ localRows+1 holds global column indices.
		// cols is ignored (the SIDL signature forces three arrays). Each
		// row is its nonzero diagonal followed by its off-diagonals,
		// and fewer than len(values) entries in all.
		if rowsLength != len(rows) || len(values) != len(rows) {
			return ErrBadArg
		}
		if len(rows) < b.localRows+1 {
			return ErrBadArg
		}
		if rows[0]-offset != b.localRows+1 {
			return ErrBadArg
		}
		rp := make([]int, b.localRows+1)
		ci := make([]int, 0, len(values))
		v := make([]float64, 0, len(values))
		for li := 0; li < b.localRows; li++ {
			if !finite(values[li]) {
				return ErrBadArg
			}
			if values[li] != 0 {
				ci = append(ci, b.startRow+li)
				v = append(v, values[li])
			}
			lo, hi := rows[li]-offset, rows[li+1]-offset
			if lo > hi || hi > len(values) {
				return ErrBadArg
			}
			for k := lo; k < hi; k++ {
				gj := rows[k] - offset
				if gj < 0 || gj >= b.globalCols || !finite(values[k]) {
					return ErrBadArg
				}
				ci = append(ci, gj)
				v = append(v, values[k])
			}
			rp[li+1] = len(ci)
		}
		a = sparse.Canonical(b.localRows, b.globalCols, rp, ci, v)
	case VBR, FEM:
		// The three-array SIDL signature cannot carry these formats; the
		// dedicated extension methods must be used instead.
		return ErrUnsupported
	default:
		return ErrBadArg
	}
	return b.stageMatrix(a)
}

// stageMatrix puts a in the slot, in place of a MatrixFree port: every
// SetupMatrix* door ends here once it has accepted its input.
func (b *baseAdapter) stageMatrix(a *sparse.CSR) int {
	b.localA = a
	b.matVer++
	return b.SetMatrixFree(nil)
}

// SetupMatrixVBR is a LISI-Go extension (the SparseStruct enum names VBR
// but the paper's three-array setupMatrix cannot express it): it accepts
// the full VBR array set for this rank's block rows. Row-partition
// indices are local (starting at 0); column-partition indices are global.
func (b *baseAdapter) SetupMatrixVBR(rpntr, cpntr, bpntr, bind, indx []int, values []float64) int {
	defer b.rec.StartPhase(telemetry.PhasePortOverhead)()
	b.rec.Add("lisi.setup_matrix_calls", 1)
	if b.c == nil || !b.distributionReady() {
		return ErrBadState
	}
	v := &sparse.VBR{RPntr: rpntr, CPntr: cpntr, BPntr: bpntr, BInd: bind, Indx: indx, Val: values}
	if err := v.Validate(); err != nil {
		return ErrBadArg
	}
	rows, cols := v.Dims()
	if rows != b.localRows || cols != b.globalCols {
		return ErrBadArg
	}
	for _, x := range values {
		if !finite(x) {
			return ErrBadArg
		}
	}
	return b.stageMatrix(v.ToCSR())
}

// SetupMatrixFEM is a LISI-Go extension for element-wise assembly: nodes
// holds each element's global node ids back to back (ke nodes per
// element), and elemMats the row-major ke×ke element matrices. Elements
// are assigned to this rank when their first node falls in its row
// block; off-rank rows raise ErrBadArg (conformal assembly is the
// application's responsibility, as with setupMatrix).
func (b *baseAdapter) SetupMatrixFEM(nodesPerElem int, nodes []int, elemMats []float64) int {
	defer b.rec.StartPhase(telemetry.PhasePortOverhead)()
	b.rec.Add("lisi.setup_matrix_calls", 1)
	if b.c == nil || !b.distributionReady() {
		return ErrBadState
	}
	if nodesPerElem < 1 || len(nodes)%nodesPerElem != 0 {
		return ErrBadArg
	}
	nElems := len(nodes) / nodesPerElem
	if len(elemMats) != nElems*nodesPerElem*nodesPerElem {
		return ErrBadArg
	}
	local := sparse.NewCOO(b.localRows, b.globalCols)
	ke := nodesPerElem
	for e := 0; e < nElems; e++ {
		en := nodes[e*ke : (e+1)*ke]
		mat := elemMats[e*ke*ke : (e+1)*ke*ke]
		for r := 0; r < ke; r++ {
			li := en[r] - b.startRow
			if li < 0 || li >= b.localRows {
				return ErrBadArg
			}
			for c := 0; c < ke; c++ {
				gj := en[c]
				if gj < 0 || gj >= b.globalCols {
					return ErrBadArg
				}
				v := mat[r*ke+c]
				if !finite(v) {
					return ErrBadArg
				}
				if v != 0 {
					local.Append(li, gj, v)
				}
			}
		}
	}
	return b.stageMatrix(local.ToCSR())
}

// ---- right-hand sides (§5.2c) ----

// SetupRHS implements SparseSolver (§5.2c).
func (b *baseAdapter) SetupRHS(rightHandSide []float64, numLocalRow, nRhs int) int {
	defer b.rec.StartPhase(telemetry.PhasePortOverhead)()
	b.rec.Add("lisi.setup_rhs_calls", 1)
	if b.c == nil || !b.distributionReady() {
		return ErrBadState
	}
	if nRhs < 1 || numLocalRow != b.localRows || len(rightHandSide) < numLocalRow*nRhs {
		return ErrBadArg
	}
	// A NaN or ±Inf right-hand side has no solution to converge to; a
	// direct backend would hand back a non-finite x as converged. Rejected
	// before the copy, so the previously staged rhs stays whole.
	need := numLocalRow * nRhs
	for _, v := range rightHandSide[:need] {
		if !finite(v) {
			return ErrBadArg
		}
	}
	// Reuse the staging buffer's capacity so re-staging a same-sized rhs
	// (the steady-state time-stepping pattern, §5.2c) does not allocate.
	if cap(b.rhs) < need {
		b.rhs = make([]float64, need)
	}
	b.rhs = b.rhs[:need]
	copy(b.rhs, rightHandSide[:need])
	b.nRhs = nRhs
	return OK
}

// finite is the one non-finite test of the staging doors and the float
// parameters: NaN fails the comparison and ±Inf exceeds MaxFloat64.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

// ---- generic parameters (§6.5) ----

// Set validates and stores a generic parameter (§6.5) against the
// backend's declared vocabulary.
func (b *baseAdapter) Set(key, value string) int {
	p, code := validate(b.vocab, key, value)
	if code != OK {
		return code
	}
	b.params[key] = value
	if p.effect != noEffect {
		b.cfgVer++
	}
	return OK
}

// each calls f, in declared order, with every key of the vocabulary
// the backend is built from that is set, and its parsed value:
// configure's one loop.
func (b *baseAdapter) each(f func(p *Param, v paramVal)) {
	for i := range b.vocab {
		p := &b.vocab[i]
		if s, ok := b.params[p.Key]; ok && p.effect != noEffect {
			v, _ := p.parse(s)
			f(p, v)
		}
	}
}

// SetInt routes through Set so validation is uniform.
func (b *baseAdapter) SetInt(key string, value int) int {
	return b.Set(key, strconv.Itoa(value))
}

// SetBool routes through Set.
func (b *baseAdapter) SetBool(key string, value bool) int {
	return b.Set(key, strconv.FormatBool(value))
}

// SetDouble routes through Set.
func (b *baseAdapter) SetDouble(key string, value float64) int {
	return b.Set(key, strconv.FormatFloat(value, 'g', -1, 64))
}

// getAll renders the parameter store (an ignored key also as
// ignored.<key>), the component's extra keys and the slot's kind
// (matrix_free) and setup count, sorted for determinism
// aside from an identifying header.
func (b *baseAdapter) getAll(extra map[string]string) string {
	merged := make(map[string]string, len(b.params)+len(extra)+2)
	for k, v := range b.params {
		merged[k] = v
		if p, _ := validate(b.vocab, k, v); p.Kind == ParamIgnored {
			merged["ignored."+k] = v
		}
	}
	for k, v := range extra {
		merged[k] = v
	}
	merged["matrix_free"] = strconv.FormatBool(b.mf != nil)
	merged["factorizations"] = strconv.Itoa(b.factorizations)
	var sb strings.Builder
	fmt.Fprintf(&sb, "component=%s\n", b.name)
	for _, k := range sortedKeys(merged) {
		fmt.Fprintf(&sb, "%s=%s\n", k, merged[k])
	}
	return sb.String()
}

// SetMatrixFree implements SparseSolver (§5.5): mf supersedes the staged
// matrix, and nil goes back to it. Clearing a port that is not set
// changes nothing, so a refresh that clears reconfigures nothing.
func (b *baseAdapter) SetMatrixFree(mf MatrixFree) int {
	if mf == nil && b.mf == nil {
		return OK
	}
	b.mf, b.shell = mf, nil
	b.cfgVer++
	return OK
}

// workerPool returns the intra-rank pool matching the "workers"
// parameter, building (and labeling) it on first use or when the count
// changed, and returning nil when the parameter is absent. Pool
// identity is keyed on the requested count, so the steady state reuses
// the pool and its parked workers.
//
// An explicit workers=1 still builds a (fanout-free) pool: the pooled
// fixed-slot reductions then apply for every requested count, which is
// what makes residual histories bitwise-identical across Workers
// settings.
func (b *baseAdapter) workerPool() *par.Pool {
	v, ok := b.params["workers"]
	if !ok {
		b.releasePool()
		return nil
	}
	pv, _ := workersParam.parse(v)
	w := pv.i
	if b.pool == nil || b.poolW != w {
		b.releasePool()
		b.pool = par.New(w)
		b.poolW = w
		b.rec.SetLabel("workers", v)
	}
	return b.pool
}

// releasePool shuts the pool's workers down (idempotent).
func (b *baseAdapter) releasePool() {
	if b.pool != nil {
		b.pool.Close()
		b.pool = nil
		b.poolW = 0
		b.lastDispatch, b.lastInline = 0, 0
	}
}

// releaseResources implements the session-close hook: the only
// releasable resource an adapter owns is its worker pool.
func (b *baseAdapter) releaseResources() { b.releasePool() }

// recordPoolStats feeds the pool's per-solve utilization deltas
// (fan-out dispatches vs inline runs) into the telemetry counters.
func (b *baseAdapter) recordPoolStats() {
	if b.pool == nil {
		return
	}
	d, i := b.pool.Stats()
	b.rec.Add("par.dispatches", d-b.lastDispatch)
	b.rec.Add("par.inline_runs", i-b.lastInline)
	b.lastDispatch, b.lastInline = d, i
}

// operator returns the distributed operator over l built from the staged
// rows (collective on a rebuild): the port's one conversion of localA
// into a backend's data structure. It is rebuilt only when the matrix
// version or the layout changed; both keys are rank-symmetric (see
// distVer), so either every rank rebuilds or none does. The Solve
// skeleton keys the backend's rebuild on the identity of the operator.
// The staged rows are dropped once they are the operator, so the port
// keeps one copy of the matrix: a rebuild for a new layout alone reads
// its rows back from the operator.
func (b *baseAdapter) operator(l *pmat.Layout) (*pmat.Mat, error) {
	if b.op != nil && b.opVer == b.matVer && b.op.L == l {
		return b.op, nil
	}
	defer b.rec.StartPhase(telemetry.PhaseSetup)()
	rows := b.localA
	if rows == nil {
		rows = b.op.LocalRowsGlobal()
	}
	op, err := pmat.NewMat(l, rows)
	if err != nil {
		return nil, err
	}
	b.op, b.opVer, b.localA = op, b.matVer, nil
	return op, nil
}

// staged is the slot's value at a Solve: the operator built from the
// last staged matrix, or the shell over the MatrixFree port, never both.
type staged struct {
	mat   *pmat.Mat
	shell *shellOp
}

// shellOp is the slot's matrix-free kind: the application's MatrixFree
// port applied over a layout (§5.5). It is the aztec.Operator trilinos
// solves on, and its mul is the apply of ksp's shell matrix.
type shellOp struct {
	l  *pmat.Layout
	m  *aztec.Map
	mf MatrixFree
}

func (o *shellOp) RowMap() *aztec.Map { return o.m }

func (o *shellOp) Apply(y, x []float64) error {
	return Check(o.mf.MatMult(IDMatrix, x, y, len(x)))
}

// mul is ksp's shell apply.
func (o *shellOp) mul(y, x []float64) { portProduct(o.mf, IDMatrix, y, x) }

// portProduct writes the port's product y = id·x. A refused product is
// NaN: the next reduction carries it to every rank, and each Krylov
// loop's non-finite stop ends the solve there as a breakdown, so a
// refusal on one rank is a typed failure on all.
func portProduct(mf MatrixFree, id ID, y, x []float64) {
	if mf.MatMult(id, x, y, len(x)) != OK {
		for i := range y {
			y[i] = math.NaN()
		}
	}
}

// solvePrep validates Solve arguments common to all components and the
// distribution against the communicator (SetStartRow must agree with
// the ranks below, and a LISI system is square: ErrBadArg otherwise),
// and reads the slot over the block-row layout: the shell while a
// MatrixFree port is in it (ErrUnsupported for a backend that needs
// assembled entries), else the operator from the last staged matrix.
// A framework-wired port is pulled only while nothing is staged.
func (b *baseAdapter) solvePrep(solution, status []float64, numLocalRow int) (staged, int) {
	b.rec.Add("lisi.solve_calls", 1)
	if b.c == nil || !b.distributionReady() || b.rhs == nil {
		return staged{}, ErrBadState
	}
	if numLocalRow != b.localRows || len(solution) < numLocalRow*b.nRhs || status == nil {
		return staged{}, ErrBadArg
	}
	if b.mf == nil && b.matVer == 0 {
		var p cca.Port
		if b.svc != nil {
			p, _ = b.svc.GetPort(PortMatrixFree)
		}
		mf, ok := p.(MatrixFree)
		if !ok {
			return staged{}, ErrBadState
		}
		b.SetMatrixFree(mf)
	}
	// The layout is collective on a cache miss. It is cached on distVer,
	// so repeated Solve calls against unchanged distribution setters skip
	// the collective, and the version-based key keeps hits rank-symmetric
	// (see the distVer field comment).
	if b.layout == nil || b.layoutVer != b.distVer {
		l, err := pmat.NewLayout(b.c, b.localRows)
		if err != nil || l.Start != b.startRow || l.N != b.globalCols {
			return staged{}, ErrBadArg
		}
		b.layout, b.layoutVer = l, b.distVer
	}
	l := b.layout
	switch {
	case b.mf == nil:
		op, err := b.operator(l)
		if err != nil {
			return staged{}, ErrBadArg
		}
		return staged{mat: op}, OK
	case !b.matrixFree:
		return staged{}, ErrUnsupported
	case b.shell == nil || b.shell.l != l:
		b.shell = &shellOp{l: l, m: aztec.MapFromLayout(l), mf: b.mf}
	}
	return staged{shell: b.shell}, OK
}

// solveHooks is what a component adds to the Solve skeleton: methods of
// the component, not closures, so passing it allocates nothing.
type solveHooks interface {
	// configure builds the backend from the parameter store for the
	// slot's kind. A component whose built object depends on the
	// parameters too drops b.built, so rebuild runs next.
	configure(op staged) int
	// rebuild binds the backend to a new slot value. A failure with a
	// reason is a failed solve, written to status; one without is a
	// refusal.
	rebuild(op staged) (int, FailReason)
	// attach hands the backend the recorder and the worker pool and
	// returns the operator whose format labels the solve (nil: none).
	attach(op staged) *pmat.Mat
	// solveOne runs the backend on one right-hand side from x = 0, and
	// classifies a failure (reason != FailNone) beside the backend's own
	// iteration count and residual estimate.
	solveOne(x, b []float64) (its int, est float64, reason FailReason)
}

// solve is the one Solve skeleton every component runs: solvePrep reads
// the slot; configure runs when the parameters or the communicator
// changed, then rebuild, counted as a factorization, when the slot's
// value did (configure first, so a parameter that changes what is built
// costs one rebuild); attach; then solveEach.
func (b *baseAdapter) solve(h solveHooks, solution, status []float64, n, statusLength int) int {
	op, code := b.solvePrep(solution, status, n)
	if code != OK {
		return code
	}
	if b.cfgDone != b.cfgVer || b.cfgComm != b.c {
		if code := h.configure(op); code != OK {
			return code
		}
		b.cfgDone, b.cfgComm = b.cfgVer, b.c
	}
	if op != b.built {
		code, reason := h.rebuild(op)
		if reason != FailNone {
			writeStatus(status, statusLength, 0, 0, false, b.factorizations, reason)
		}
		if code != OK {
			return code
		}
		b.built = op
		b.factorizations++
	}
	if m := h.attach(op); m != nil {
		// The kernel the format rule bound (attach's SetPool binds) to
		// the interior block, so a report can explain its SpMV.
		b.rec.SetLabel("sparse.format", m.Format().Interior.String())
	}
	return b.solveEach(h, solution, status, n, statusLength)
}

// solveEach is the skeleton's solve loop: each staged right-hand side is
// solved into its block of solution from x = 0 — the rule that makes a
// failed solve repeat to the bit — and the first failure is written to
// status and stops the loop. On success status carries the total
// iteration count and the last right-hand side's estimate.
func (b *baseAdapter) solveEach(h solveHooks, solution, status []float64, n, statusLength int) int {
	total, est := 0, 0.0
	for r := 0; r < b.nRhs; r++ {
		x := solution[r*n : (r+1)*n]
		for i := range x {
			x[i] = 0
		}
		its, e, reason := h.solveOne(x, b.rhs[r*n:(r+1)*n])
		if reason != FailNone {
			writeStatus(status, statusLength, its, e, false, b.factorizations, reason)
			return ErrSolveFailed
		}
		total += its
		est = e
	}
	b.recordPoolStats()
	writeStatus(status, statusLength, total, est, true, b.factorizations, FailNone)
	return OK
}

// writeStatus fills the inout status array respecting statusLength.
func writeStatus(status []float64, statusLength int, its int, rnorm float64, converged bool, factorizations int, reason FailReason) {
	vals := [StatusLen]float64{float64(its), rnorm, 0, float64(factorizations), float64(reason)}
	if converged {
		vals[StatusConverged] = 1
	}
	n := statusLength
	if n > len(status) {
		n = len(status)
	}
	if n > StatusLen {
		n = StatusLen
	}
	copy(status[:n], vals[:n])
}
