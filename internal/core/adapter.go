package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

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
// staged local matrix and right-hand sides, the generic parameter store,
// and the optional MatrixFree port. The package-specific components embed
// it and add their translation tables and solve routines.
type baseAdapter struct {
	name string // component display name for GetAll / errors

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
	mf     MatrixFree

	// checkParam validates a (key, value) pair against the embedding
	// backend's own parameter vocabulary; Set calls it for every key
	// but the cross-cutting ones it validates itself.
	checkParam func(key, value string) int

	// cfgVer is bumped whenever the parameter store or the MatrixFree
	// port changes; components key their cached, configured backend
	// solver objects on it so a steady-state Solve reuses the solver
	// (and its internal workspaces) instead of rebuilding it.
	cfgVer int

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

func newBaseAdapter(name string, checkParam func(key, value string) int) baseAdapter {
	return baseAdapter{
		name:       name,
		checkParam: checkParam,
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

// fetchMatrixFreePort pulls the application's MatrixFree port if wired
// in the framework and none was set explicitly.
func (b *baseAdapter) fetchMatrixFreePort() {
	if b.mf != nil || b.svc == nil {
		return
	}
	if p, err := b.svc.GetPort(PortMatrixFree); err == nil {
		if mf, ok := p.(MatrixFree); ok {
			b.mf = mf
			b.cfgVer++
		}
	}
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
	b.localA = a
	b.matVer++
	return OK
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
	b.localA = v.ToCSR()
	b.matVer++
	return OK
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
	b.localA = local.ToCSR()
	b.matVer++
	return OK
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

// finite is the staging doors' one non-finite test: NaN fails the
// comparison and ±Inf exceeds MaxFloat64.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

// floatParam parses a float parameter value by the same rule: ok only
// for a well-formed, finite number. Every backend's float keys go
// through it.
func floatParam(value string) (float64, bool) {
	v, err := strconv.ParseFloat(value, 64)
	return v, err == nil && finite(v)
}

// ---- generic parameters (§6.5) ----

// Set validates and stores a generic parameter (§6.5): "workers", the
// one key every backend shares, here, and everything else against the
// backend's own vocabulary.
func (b *baseAdapter) Set(key, value string) int {
	if key == "workers" {
		if v, err := strconv.Atoi(value); err != nil || v < 1 {
			return ErrBadArg
		}
	} else if code := b.checkParam(key, value); code != OK {
		return code
	}
	b.params[key] = value
	b.cfgVer++
	return OK
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

// getAll renders the parameter store plus identification, sorted for
// determinism aside from an identifying header.
func (b *baseAdapter) getAll(extra map[string]string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "component=%s\n", b.name)
	keys := make([]string, 0, len(b.params)+len(extra))
	merged := make(map[string]string, len(b.params)+len(extra))
	for k, v := range b.params {
		merged[k] = v
		keys = append(keys, k)
	}
	for k, v := range extra {
		if _, dup := merged[k]; !dup {
			keys = append(keys, k)
		}
		merged[k] = v
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s\n", k, merged[k])
	}
	return sb.String()
}

// SetMatrixFree implements SparseSolver (§5.5).
func (b *baseAdapter) SetMatrixFree(mf MatrixFree) int {
	b.mf = mf
	b.cfgVer++
	return OK
}

// recordFormat labels the solve with the kernel the format rule bound
// to the operator's interior block, so a report can explain its SpMV.
// Call after SetPool, which binds.
func (b *baseAdapter) recordFormat(m *pmat.Mat) {
	b.rec.SetLabel("sparse.format", m.Format().Interior.String())
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
	w, _ := strconv.Atoi(v)
	if w < 1 {
		w = 1
	}
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
// distVer), so either every rank rebuilds or none does. Components key
// their own backend rebuild on the identity of the operator returned.
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

// solvePrep validates Solve arguments common to all components and the
// distribution against the communicator, and returns the block-row
// layout: SetStartRow must agree with the ranks below, and a LISI system
// is square (ErrBadArg otherwise).
func (b *baseAdapter) solvePrep(solution, status []float64, numLocalRow int) (*pmat.Layout, int) {
	b.rec.Add("lisi.solve_calls", 1)
	if b.c == nil || !b.distributionReady() {
		return nil, ErrBadState
	}
	if b.rhs == nil {
		return nil, ErrBadState
	}
	if numLocalRow != b.localRows {
		return nil, ErrBadArg
	}
	if len(solution) < numLocalRow*b.nRhs {
		return nil, ErrBadArg
	}
	if status == nil {
		return nil, ErrBadArg
	}
	b.fetchMatrixFreePort()
	if b.mf == nil && b.localA == nil && b.op == nil {
		return nil, ErrBadState
	}
	// The layout is collective on a cache miss. It is cached on distVer,
	// so repeated Solve calls against unchanged distribution setters skip
	// the collective, and the version-based key keeps hits rank-symmetric
	// (see the distVer field comment).
	if b.layout == nil || b.layoutVer != b.distVer {
		l, err := pmat.NewLayout(b.c, b.localRows)
		if err != nil || l.Start != b.startRow || l.N != b.globalCols {
			return nil, ErrBadArg
		}
		b.layout, b.layoutVer = l, b.distVer
	}
	return b.layout, OK
}

// rhsSolver is a component's backend run for one right-hand side: x is
// zero on entry, and a failure comes back classified (reason !=
// FailNone) with the backend's own iteration count and residual
// estimate. The component itself implements it, so passing it to
// solveEach allocates nothing, where a closure would.
type rhsSolver interface {
	solveOne(x, b []float64) (its int, est float64, reason FailReason)
}

// solveEach is the one solve loop every component ends its Solve with:
// each staged right-hand side is solved into its block of solution
// from x = 0 — the rule that makes a failed solve repeat to the bit —
// and the first failure is written to status and stops the loop. On
// success status carries the total iteration count and the last
// right-hand side's estimate.
func (b *baseAdapter) solveEach(one rhsSolver, solution, status []float64, n, statusLength int) int {
	total, est := 0, 0.0
	for r := 0; r < b.nRhs; r++ {
		x := solution[r*n : (r+1)*n]
		for i := range x {
			x[i] = 0
		}
		its, e, reason := one.solveOne(x, b.rhs[r*n:(r+1)*n])
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
