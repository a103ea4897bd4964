package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cca"
	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/sparse"
)

// The staging contract (docs/SPEC.md §4): the last staging call wins.
// A SetupMatrix* door that succeeds replaces a MatrixFree port, set or
// pulled; SetMatrixFree(op) supersedes the matrix; SetMatrixFree(nil)
// goes back to the last staged matrix; a framework-wired port is pulled
// only while nothing is staged; a refused call changes nothing.
// TestStagingSequences drives random call sequences through every
// backend and checks each Solve against a fresh component that receives
// only the state the contract says is in effect.

// stagingGrid is the system's grid: n = 81 rows, small enough for a
// few hundred sequences per backend.
const stagingGrid = 9

// Matrices a sequence can stage: the paper's model operator (the one mg
// accepts), the 5-point Laplacian, and the model operator with a NaN in
// every rank's block, which every door refuses.
const (
	matModel = iota
	matLaplace
	matNaN
)

// Operators a SetMatrixFree or a wired port can hand over.
const (
	mfIdentity = iota
	mfBlock
	numMF
)

// stagingKind is one call of the port.
type stagingKind int

const (
	stepDist    stagingKind = iota // the §6.3 setters, with this rank's rows
	stepDistBad                    // SetLocalRows(-1): refused
	stepSet                        // Set(key, value)
	stepMatrix                     // SetupMatrix* in format f
	stepMF                         // SetMatrixFree(op)
	stepMFNil                      // SetMatrixFree(nil)
	stepRHS                        // SetupRHS with one or two right-hand sides
	stepSolve
	stepInit // Initialize on a new world
)

type stagingStep struct {
	kind       stagingKind
	arg        int          // matrix, operator or rhs variant
	format     SparseStruct // stepMatrix
	key, value string       // stepSet
}

func (s stagingStep) String() string {
	switch s.kind {
	case stepDist:
		return "dist"
	case stepDistBad:
		return "SetLocalRows(-1)"
	case stepSet:
		return fmt.Sprintf("Set(%s=%s)", s.key, s.value)
	case stepMatrix:
		return fmt.Sprintf("SetupMatrix(%s, %s)", [...]string{"model", "laplace", "nan"}[s.arg], s.format)
	case stepMF:
		return fmt.Sprintf("SetMatrixFree(%s)", [...]string{"identity", "block"}[s.arg])
	case stepMFNil:
		return "SetMatrixFree(nil)"
	case stepRHS:
		return fmt.Sprintf("SetupRHS(nrhs=%d)", s.arg+1)
	case stepSolve:
		return "Solve"
	case stepInit:
		return "Initialize(new world)"
	}
	return "?"
}

// stagingSeq is one call sequence, on a component whose MatrixFree uses
// port is wired to operator wired (-1: not wired).
type stagingSeq struct {
	wired int
	steps []stagingStep
}

func (q stagingSeq) String() string {
	parts := make([]string, len(q.steps))
	for i, s := range q.steps {
		parts[i] = s.String()
	}
	w := "none"
	if q.wired >= 0 {
		w = [...]string{"identity", "block"}[q.wired]
	}
	return fmt.Sprintf("wired=%s: %s", w, strings.Join(parts, ", "))
}

// stagingParam is one Set the generator may make, and its code.
type stagingParam struct {
	key, value string
	want       int
}

// stagingParams lists, per backend, the parameters set before every
// sequence and the ones a sequence may set.
var stagingParams = map[string]struct {
	base []stagingParam
	set  []stagingParam
}{
	"petsc": {
		base: []stagingParam{{"tol", "1e-10", OK}},
		set: []stagingParam{
			{"preconditioner", "none", OK}, {"preconditioner", "jacobi", OK},
			{"solver", "bicgstab", OK}, {"matfree_pc", "true", OK}, {"workers", "2", OK},
			{"tol", "NaN", ErrBadArg}, {"bogus", "1", ErrUnknownKey},
		},
	},
	"trilinos": {
		base: []stagingParam{{"tol", "1e-10", OK}},
		set: []stagingParam{
			{"preconditioner", "none", OK}, {"preconditioner", "jacobi", OK},
			{"solver", "bicgstab", OK}, {"workers", "2", OK},
			{"tol", "NaN", ErrBadArg}, {"bogus", "1", ErrUnknownKey},
		},
	},
	"superlu": {
		set: []stagingParam{
			{"preconditioner", "none", OK}, {"ordering", "rcm", OK}, {"refine_steps", "1", OK}, {"workers", "2", OK},
			{"pivot_threshold", "NaN", ErrBadArg}, {"bogus", "1", ErrUnknownKey},
		},
	},
	"mg": {
		base: []stagingParam{{"tol", "1e-10", OK}},
		set: []stagingParam{
			{"preconditioner", "none", ErrUnknownKey}, {"smooth_sweeps", "1", OK},
			{"tol", "1e-6", OK}, {"gamma", "2", OK}, {"workers", "2", OK}, {"omega", "NaN", ErrBadArg},
		},
	},
}

// stagingWorld is one rank's share of the system.
type stagingWorld struct {
	p, rank      int
	start, local int
	mats         [3]*sparse.CSR // this rank's rows, global columns
	rhs          [2][]float64   // one and two right-hand sides
}

func newStagingWorld(p, rank int) *stagingWorld {
	n := stagingGrid * stagingGrid
	w := &stagingWorld{p: p, rank: rank}
	for r := 0; r < rank; r++ {
		w.start += mesh.LocalRows(n, p, r)
	}
	w.local = mesh.LocalRows(n, p, rank)
	model, _, err := mesh.PaperProblem(stagingGrid).GenerateGlobal()
	if err != nil {
		panic(err)
	}
	lap := sparse.Laplace2D(stagingGrid, stagingGrid)
	w.mats[matModel] = model.SubMatrix(w.start, w.start+w.local)
	w.mats[matLaplace] = lap.SubMatrix(w.start, w.start+w.local)
	bad := model.SubMatrix(w.start, w.start+w.local)
	bad.Vals[bad.NNZ()/2] = math.NaN()
	w.mats[matNaN] = bad
	one := make([]float64, w.local)
	two := make([]float64, 2*w.local)
	for i := range one {
		g := float64(w.start + i)
		one[i] = 1 + math.Mod(g, 7)/7
		two[i] = one[i]
		two[w.local+i] = 2 - math.Mod(g, 5)/5
	}
	w.rhs = [2][]float64{one, two}
	return w
}

// stagingOp is a matrix-free operator local to each rank, so it needs
// no communication at any P: the identity, or the Laplacian's diagonal
// block. Its preconditioner callback (matfree_pc) is y = x or y = x/4.
type stagingOp struct {
	block *sparse.CSR // nil: identity
}

func newStagingOp(kind int, w *stagingWorld) *stagingOp {
	if kind == mfIdentity {
		return &stagingOp{}
	}
	a := w.mats[matLaplace]
	coo := sparse.NewCOO(w.local, w.local)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColInd[k] - w.start; j >= 0 && j < w.local {
				coo.Append(i, j, a.Vals[k])
			}
		}
	}
	return &stagingOp{block: coo.ToCSR()}
}

func (o *stagingOp) MatMult(id ID, x, y []float64, length int) int {
	switch {
	case o.block == nil:
		copy(y, x)
	case id == IDMatrix:
		o.block.MulVec(y, x)
	default:
		for i := range y {
			y[i] = x[i] / 4
		}
	}
	return OK
}

// wiredServices is a framework stand-in whose MatrixFree uses port is
// connected to mf (nil: not connected).
type wiredServices struct {
	c  *comm.Comm
	mf MatrixFree
}

func (s wiredServices) AddProvidesPort(cca.Port, string, string) error { return nil }
func (s wiredServices) RegisterUsesPort(string, string) error          { return nil }
func (s wiredServices) ReleasePort(string) error                       { return nil }
func (s wiredServices) Comm() *comm.Comm                               { return s.c }
func (s wiredServices) InstanceName() string                           { return "solver" }
func (s wiredServices) GetPort(name string) (cca.Port, error) {
	if name != PortMatrixFree || s.mf == nil {
		return nil, fmt.Errorf("port %q is not connected", name)
	}
	return s.mf, nil
}

// stageMatrixAs stages local through the door of format f.
func stageMatrixAs(s SparseSolver, local *sparse.CSR, start int, f SparseStruct) int {
	switch f {
	case COO:
		rows := make([]int, 0, local.NNZ())
		for i := 0; i < local.Rows; i++ {
			for k := local.RowPtr[i]; k < local.RowPtr[i+1]; k++ {
				rows = append(rows, start+i)
			}
		}
		return s.SetupMatrixCOO(local.Vals, rows, local.ColInd, local.NNZ())
	case MSR:
		n := local.Rows
		val := make([]float64, n+1, n+1+local.NNZ())
		ind := make([]int, n+1, n+1+local.NNZ())
		for i := 0; i < n; i++ {
			ind[i] = len(ind)
			for k := local.RowPtr[i]; k < local.RowPtr[i+1]; k++ {
				if j := local.ColInd[k]; j == start+i {
					val[i] = local.Vals[k]
				} else {
					val = append(val, local.Vals[k])
					ind = append(ind, j)
				}
			}
		}
		ind[n] = len(ind)
		return s.SetupMatrix(val, ind, ind, MSR, len(ind), local.NNZ())
	}
	return s.SetupMatrix(local.Vals, local.RowPtr, local.ColInd, CSR, len(local.RowPtr), local.NNZ())
}

// stagingModel is the contract's reference: what a component has in
// effect after each call.
type stagingModel struct {
	backend string
	wired   int
	dist    bool
	params  map[string]string
	matrix  int // last staged matrix, -1: none
	mf      int // SetMatrixFree's operator, -1: none
	nRhs    int // 0: none staged
}

// operator returns the matrix or the matrix-free operator a Solve runs
// on (-1 for the other), both -1 when nothing is staged.
func (m *stagingModel) operator() (matrix, mf int) {
	switch {
	case m.mf >= 0:
		return -1, m.mf
	case m.matrix >= 0:
		return m.matrix, -1
	}
	return -1, m.wired
}

// apply records the call's effect and returns the code the contract
// gives it; Solve's code is the fresh component's, so it returns OK.
func (m *stagingModel) apply(s stagingStep) int {
	switch s.kind {
	case stepDist:
		m.dist = true
	case stepDistBad:
		return ErrBadArg
	case stepSet:
		for _, p := range append(stagingParams[m.backend].base, stagingParams[m.backend].set...) {
			if p.key == s.key && p.value == s.value {
				if p.want == OK {
					m.params[s.key] = s.value
				}
				return p.want
			}
		}
		return ErrUnknownKey // a pinned row's key outside this backend's table
	case stepMatrix:
		switch {
		case !m.dist:
			return ErrBadState
		case s.arg == matNaN:
			return ErrBadArg
		}
		m.matrix, m.mf = s.arg, -1
	case stepMF:
		m.mf = s.arg
	case stepMFNil:
		m.mf = -1
	case stepRHS:
		if !m.dist {
			return ErrBadState
		}
		m.nRhs = s.arg + 1
	}
	return OK
}

// stagingRun is one rank's component, its model and its world data,
// kept across the sequence's worlds.
type stagingRun struct {
	w     *stagingWorld
	s     SparseSolver
	model *stagingModel
}

// solveOutcome is what a Solve hands back: its code, the status array
// and the solution's bits.
type solveOutcome struct {
	code   int
	status [StatusLen]float64
	x      []float64
}

func solveInto(s SparseSolver, w *stagingWorld, nRhs int) solveOutcome {
	if nRhs == 0 {
		nRhs = 1
	}
	out := solveOutcome{x: make([]float64, nRhs*w.local)}
	for i := range out.x {
		out.x[i] = 7
	}
	for i := range out.status {
		out.status[i] = -1
	}
	out.code = s.Solve(out.x, out.status[:], w.local, StatusLen)
	return out
}

// fresh opens a new component on c and hands it only the model's
// effective state: its parameters, distribution, operator and rhs.
func (r *stagingRun) fresh(c *comm.Comm) solveOutcome {
	m, w := r.model, r.w
	s, err := Open(m.backend)
	if err != nil {
		panic(err)
	}
	must := func(what string, code int) {
		if code != OK {
			panic(fmt.Sprintf("a fresh %s component refused %s: %d", m.backend, what, code))
		}
	}
	must("Initialize", s.Initialize(c))
	for _, k := range sortedKeys(m.params) {
		must("Set "+k, s.Set(k, m.params[k]))
	}
	if m.dist {
		must("the distribution", setDistribution(s, w))
	}
	switch matrix, mf := m.operator(); {
	case mf >= 0:
		must("SetMatrixFree", s.SetMatrixFree(newStagingOp(mf, w)))
	case matrix >= 0:
		must("SetupMatrix", stageMatrixAs(s, w.mats[matrix], w.start, CSR))
	}
	if m.nRhs > 0 {
		must("SetupRHS", s.SetupRHS(w.rhs[m.nRhs-1], w.local, m.nRhs))
	}
	defer s.(resourceHolder).releaseResources()
	return solveInto(s, w, m.nRhs)
}

func setDistribution(s SparseSolver, w *stagingWorld) int {
	code := s.SetStartRow(w.start)
	if code == OK {
		code = s.SetLocalRows(w.local)
	}
	if code == OK {
		code = s.SetLocalNNZ(w.mats[matModel].NNZ())
	}
	if code == OK {
		code = s.SetGlobalCols(stagingGrid * stagingGrid)
	}
	return code
}

// step makes one call on the sequence's component and checks its code
// against the model's; a Solve is checked against a fresh component.
func (r *stagingRun) step(c *comm.Comm, st stagingStep) error {
	s, w := r.s, r.w
	var got int
	switch st.kind {
	case stepInit:
		got = s.Initialize(c)
	case stepDist:
		got = setDistribution(s, w)
	case stepDistBad:
		got = s.SetLocalRows(-1)
	case stepSet:
		got = s.Set(st.key, st.value)
	case stepMatrix:
		got = stageMatrixAs(s, w.mats[st.arg], w.start, st.format)
	case stepMF:
		got = s.SetMatrixFree(newStagingOp(st.arg, w))
	case stepMFNil:
		got = s.SetMatrixFree(nil)
	case stepRHS:
		got = s.SetupRHS(w.rhs[st.arg], w.local, st.arg+1)
	case stepSolve:
		return r.checkSolve(c)
	}
	if want := r.model.apply(st); got != want {
		return fmt.Errorf("%v returned %d, the contract gives %d", st, got, want)
	}
	return nil
}

func (r *stagingRun) checkSolve(c *comm.Comm) error {
	m := r.model
	got := solveInto(r.s, r.w, m.nRhs)
	matrix, mf := m.operator()
	switch iterative := m.backend == "petsc" || m.backend == "trilinos"; {
	case !m.dist || m.nRhs == 0 || (matrix < 0 && mf < 0):
		if got.code != ErrBadState {
			return fmt.Errorf("Solve with nothing to solve returned %d, want ErrBadState", got.code)
		}
	case mf >= 0 && !iterative:
		if got.code != ErrUnsupported {
			return fmt.Errorf("Solve on a matrix-free operator returned %d, want ErrUnsupported", got.code)
		}
	}
	want := r.fresh(c)
	if got.code != want.code {
		return fmt.Errorf("Solve returned %d, a fresh component given the effective state %d (status %v)", got.code, want.code, want.status)
	}
	for i := range got.status {
		if i != StatusFactorizations && math.Float64bits(got.status[i]) != math.Float64bits(want.status[i]) {
			return fmt.Errorf("status %v, a fresh component's %v", got.status, want.status)
		}
	}
	for i := range got.x {
		if math.Float64bits(got.x[i]) != math.Float64bits(want.x[i]) {
			return fmt.Errorf("x[%d] = %v, a fresh component's %v (status %v)", i, got.x[i], want.x[i], got.status)
		}
	}
	return nil
}

// runStaging runs one sequence on p ranks, one world per Initialize,
// and returns the first mismatch of the lowest rank that saw one.
func runStaging(backend string, p int, q stagingSeq) error {
	runs := make([]*stagingRun, p)
	defer func() {
		for _, r := range runs {
			if r != nil {
				r.s.(resourceHolder).releaseResources()
			}
		}
	}()
	var segments [][]stagingStep
	seg := []stagingStep{{kind: stepInit}}
	for _, st := range q.steps {
		if st.kind == stepInit {
			segments = append(segments, seg)
			seg = nil
		}
		seg = append(seg, st)
	}
	segments = append(segments, seg)
	errs := make([]error, p)
	for k, seg := range segments {
		w, err := comm.NewWorld(p)
		if err != nil {
			return err
		}
		if err := w.Run(func(c *comm.Comm) {
			rank := c.Rank()
			if k == 0 {
				runs[rank] = newStagingRun(backend, p, rank, q.wired, c)
			}
			r := runs[rank]
			for _, st := range seg {
				if errs[rank] != nil {
					return
				}
				errs[rank] = r.step(c, st)
			}
		}); err != nil {
			return fmt.Errorf("world %d: %v", k, err)
		}
	}
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %v", rank, err)
		}
	}
	return nil
}

func newStagingRun(backend string, p, rank, wired int, c *comm.Comm) *stagingRun {
	w := newStagingWorld(p, rank)
	s, err := Open(backend)
	if err != nil {
		panic(err)
	}
	svc := wiredServices{c: c}
	if wired >= 0 {
		svc.mf = newStagingOp(wired, w)
	}
	if err := s.(cca.Component).SetServices(svc); err != nil {
		panic(err)
	}
	m := &stagingModel{backend: backend, wired: wired, params: map[string]string{}, matrix: -1, mf: -1}
	r := &stagingRun{w: w, s: s, model: m}
	for _, bp := range stagingParams[backend].base {
		if code := s.Set(bp.key, bp.value); code != bp.want {
			panic(fmt.Sprintf("%s: Set(%s=%s) = %d", backend, bp.key, bp.value, code))
		}
		m.params[bp.key] = bp.value
	}
	return r
}

// genStaging writes one sequence of at most 8 calls ending in a Solve.
// Three in four start with the distribution and half of those stage a
// right-hand side next, so most Solves have something to solve.
func genStaging(rng *rand.Rand, backend string) stagingSeq {
	q := stagingSeq{wired: -1}
	if rng.Intn(2) == 0 {
		q.wired = rng.Intn(numMF)
	}
	set := stagingParams[backend].set
	n := 1 + rng.Intn(8)
	if rng.Intn(4) > 0 {
		q.steps = append(q.steps, stagingStep{kind: stepDist})
		if n > 2 && rng.Intn(2) == 0 {
			q.steps = append(q.steps, stagingStep{kind: stepRHS, arg: rng.Intn(2)})
		}
	}
	for len(q.steps) < n-1 {
		var st stagingStep
		switch x := rng.Intn(20); {
		case x < 1:
			st.kind = stepDist
		case x < 2:
			st.kind = stepDistBad
		case x < 4:
			p := set[rng.Intn(len(set))]
			st = stagingStep{kind: stepSet, key: p.key, value: p.value}
		case x < 9:
			st = stagingStep{kind: stepMatrix, arg: []int{matModel, matModel, matLaplace, matNaN}[rng.Intn(4)],
				format: []SparseStruct{CSR, COO, MSR}[rng.Intn(3)]}
		case x < 11:
			st = stagingStep{kind: stepMF, arg: rng.Intn(numMF)}
		case x < 12:
			st.kind = stepMFNil
		case x < 16:
			st = stagingStep{kind: stepRHS, arg: rng.Intn(2)}
		case x < 18:
			st.kind = stepSolve
		default:
			st.kind = stepInit
		}
		q.steps = append(q.steps, st)
	}
	q.steps = append(q.steps, stagingStep{kind: stepSolve})
	return q
}

// stagingPinned are the sequences that gave wrong answers before the
// Solve skeleton: a port the matrix should replace kept solving.
var stagingPinned = []stagingSeq{
	{wired: -1, steps: []stagingStep{
		{kind: stepSet, key: "preconditioner", value: "none"}, {kind: stepDist},
		{kind: stepMF, arg: mfIdentity}, {kind: stepMatrix, arg: matLaplace, format: CSR},
		{kind: stepRHS}, {kind: stepSolve},
	}},
	{wired: mfIdentity, steps: []stagingStep{
		{kind: stepSet, key: "preconditioner", value: "none"}, {kind: stepDist},
		{kind: stepMatrix, arg: matLaplace, format: CSR}, {kind: stepRHS}, {kind: stepSolve},
	}},
	// mg built its hierarchy once per matrix, so a parameter set after
	// the first Solve never took effect.
	{wired: -1, steps: []stagingStep{
		{kind: stepDist}, {kind: stepMatrix, arg: matModel, format: CSR}, {kind: stepRHS}, {kind: stepSolve},
		{kind: stepSet, key: "smooth_sweeps", value: "1"}, {kind: stepSolve},
	}},
}

// stagingSeqsPerRun is how many generated sequences each backend × P
// cell runs.
const stagingSeqsPerRun = 150

// TestStagingSequences checks the staging contract for every backend on
// 1 and 2 ranks: the pinned sequences first, then generated ones from a
// fixed seed per cell, printed with the sequence on a failure.
func TestStagingSequences(t *testing.T) {
	for _, backend := range []string{"petsc", "trilinos", "superlu", "mg"} {
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/p=%d", backend, p), func(t *testing.T) {
				for i, q := range stagingPinned {
					if err := runStaging(backend, p, q); err != nil {
						t.Errorf("pinned row %d (%v): %v", i, q, err)
					}
				}
				seed := int64(4700 + 10*len(backend) + p)
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < stagingSeqsPerRun; i++ {
					q := genStaging(rng, backend)
					if err := runStaging(backend, p, q); err != nil {
						t.Fatalf("seed %d, sequence %d (%v): %v", seed, i, q, err)
					}
				}
			})
		}
	}
}
