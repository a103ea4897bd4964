package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// entrySpec freezes everything that shapes one pooled session's
// identity, resolved from the first request seen for its pool key.
type entrySpec struct {
	tenant  string
	backend string
	procs   int
	workers int
	n       int
	params  map[string]string

	gridN  int         // paper model problem when > 0
	matrix *sparse.CSR // explicit global operator otherwise

	opID  string
	opVer int

	telemetry bool
	hook      comm.FaultHook
	timeout   time.Duration
	failover  []string
}

// job is one admitted request travelling from its handler to the
// entry's dispatcher. done is buffered so neither side can block the
// other: the dispatcher's reply never waits, and a handler that
// abandoned the job (caller cancellation) just never reads it.
type job struct {
	ctx          context.Context
	n            int
	nRhs         int
	rhs          []float64
	wantSolution bool

	done chan jobResult
}

// jobResult is the dispatcher's reply to one job. err is exclusive
// with the rest.
type jobResult struct {
	res      core.SolveResult
	err      *Error
	wall     time.Duration
	solution []float64
	report   *telemetry.SolveReport
}

// rankResult is one rank's outcome for the setup phase or one solve.
type rankResult struct {
	rank int
	res  core.SolveResult
	err  error
}

// entry is one pooled session: an SPMD world whose ranks each hold an
// open core.Session against the same staged operator, a bounded job
// queue, and a dispatcher goroutine that feeds the ranks. The entry is
// the unit of both reuse (repeat solves ride the sessions'
// version-keyed steady-state path) and blast radius (an aborted solve
// poisons the world, so the whole entry is torn down and rebuilt by
// the next request).
type entry struct {
	svc  *Service
	key  poolKey
	spec entrySpec

	world    *comm.World
	jobs     chan *job
	rankJobs []chan *job // cap 1 each: a send never blocks on a dead rank
	results  chan rankResult
	runDone  chan struct{} // closed when the world's Run region returns
	stopCh   chan struct{}
	stopOnce sync.Once

	rec    *telemetry.Recorder // non-nil only for telemetry entries
	starts []int               // block-row starts, len procs+1
	rankX  [][]float64         // per-rank solution buffers, rank-written

	pending atomic.Int64
	dead    atomic.Bool
	lastUse time.Time // guarded by svc.mu

	// Dispatcher-owned: cur is the job being served, cleared before its
	// reply; torn records that teardown ran.
	cur  *job
	torn bool
}

func newEntry(s *Service, key poolKey, spec entrySpec) (*entry, *Error) {
	w, err := comm.NewWorld(spec.procs)
	if err != nil {
		return nil, errf(CodeBadRequest, 400, false, "procs %d: %v", spec.procs, err)
	}
	starts, err := mesh.PartitionRows(spec.n, spec.procs)
	if err != nil {
		return nil, errf(CodeBadRequest, 400, false, "%v", err)
	}
	if spec.hook != nil {
		// Arm before Run starts — SetFaultHook's contract.
		w.SetFaultHook(spec.hook)
	}
	e := &entry{
		svc:      s,
		key:      key,
		spec:     spec,
		world:    w,
		jobs:     make(chan *job, s.cfg.QueueDepth),
		rankJobs: make([]chan *job, spec.procs),
		results:  make(chan rankResult, spec.procs),
		runDone:  make(chan struct{}),
		stopCh:   make(chan struct{}),
		starts:   starts,
		rankX:    make([][]float64, spec.procs),
	}
	if spec.telemetry {
		e.rec = telemetry.New()
	}
	for r := range e.rankJobs {
		e.rankJobs[r] = make(chan *job, 1)
	}
	return e, nil
}

func (e *entry) start() {
	go func() {
		_ = e.world.Run(e.rankLoop)
		close(e.runDone)
	}()
	go e.dispatch()
}

// beginStop asks the dispatcher to finish the queued work and tear the
// entry down. Idempotent.
func (e *entry) beginStop() { e.stopOnce.Do(func() { close(e.stopCh) }) }

// setupRank builds this rank's layout, local operator block and
// session. A world abort mid-setup (server-level fault schedules crash
// at the layout collective) is converted to an error so every rank
// still reports exactly one setup result and then parks — a rank that
// unwound instead would strand its peers' collectives.
func (e *entry) setupRank(c *comm.Comm) (s *core.Session, l *pmat.Layout, err error) {
	defer func() {
		if p := recover(); p != nil {
			if p != comm.ErrAborted {
				panic(p)
			}
			cause := e.world.Cause()
			if cause == nil {
				cause = comm.ErrAborted
			}
			s, err = nil, cause
		}
	}()
	l, err = pmat.EvenLayout(c, e.spec.n)
	if err != nil {
		return nil, nil, err
	}
	var a *sparse.CSR
	if e.spec.matrix != nil {
		a = e.spec.matrix.SubMatrix(l.Start, l.Start+l.LocalN)
	} else {
		a, _, err = mesh.PaperProblem(e.spec.gridN).GenerateLocal(l)
		if err != nil {
			return nil, nil, err
		}
	}
	s, err = core.OpenSession(e.spec.backend, c, core.SessionOptions{
		Recorder:     e.rec,
		SolveTimeout: e.spec.timeout,
		Params:       e.spec.params,
		Workers:      e.spec.workers,
		Failover:     e.spec.failover,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := s.Setup(l, a); err != nil {
		return nil, nil, err
	}
	return s, l, nil
}

// rankLoop is the per-rank body of the entry's Run region: set up once,
// then serve jobs until the dispatcher closes this rank's channel.
func (e *entry) rankLoop(c *comm.Comm) {
	rank := c.Rank()
	s, l, err := e.setupRank(c)
	e.results <- rankResult{rank: rank, err: err}
	if err != nil {
		// Park until teardown closes the channel: returning now would
		// either strand peers (collective discipline) or force Run to
		// report before the dispatcher has replied to queued jobs.
		for range e.rankJobs[rank] {
		}
		return
	}
	defer s.Close()
	localN := l.LocalN
	var rhs []float64
	for j := range e.rankJobs[rank] {
		// Stage this rank's rows of each right-hand side. Capacity reuse
		// keeps the repeat-solve path allocation-free.
		need := localN * j.nRhs
		if cap(rhs) < need {
			rhs = make([]float64, need)
		}
		rhs = rhs[:need]
		for k := 0; k < j.nRhs; k++ {
			copy(rhs[k*localN:(k+1)*localN], j.rhs[k*j.n+l.Start:k*j.n+l.Start+localN])
		}
		if serr := s.SetupRHS(rhs, j.nRhs); serr != nil {
			// Staging errors are rank-uniform (bad state, dead session):
			// every rank takes this branch together, so nobody enters
			// Solve's collectives short-handed.
			e.results <- rankResult{rank: rank, err: serr}
			continue
		}
		x := e.rankX[rank]
		if cap(x) < need {
			x = make([]float64, need)
		}
		x = x[:need]
		for i := range x {
			x[i] = 0
		}
		e.rankX[rank] = x
		res, serr := s.Solve(j.ctx, x)
		e.results <- rankResult{rank: rank, res: res, err: serr}
	}
}

// dispatch is the entry's single dispatcher: collect the setup
// outcome, then serve jobs one solve round each until stopped or
// poisoned.
func (e *entry) dispatch() {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		// Defense in depth: a dispatcher panic (e.g. malformed job state)
		// must take down the entry, not the server. Poison the world so
		// any in-flight rank collectives unwind, fail the current job
		// unless it was already replied to (its slot is then nil), and
		// tear down the rest of the queue.
		e.world.Abort()
		terr := errf(CodeSessionAborted, 503, true,
			"internal dispatcher failure: %v; the pooled session was torn down", p)
		if j := e.cur; j != nil {
			e.cur = nil
			j.done <- jobResult{err: terr}
		}
		e.teardown(terr)
	}()
	if serr := e.collectSetup(); serr != nil {
		e.teardown(serr)
		return
	}
	if gate := e.svc.dispatchGate; gate != nil {
		// Test hook: lets tests queue jobs before the first round. Stop
		// still wins so a gated entry cannot deadlock shutdown.
		select {
		case <-gate:
		case <-e.stopCh:
		}
	}
	for j := e.nextJob(); j != nil; j = e.nextJob() {
		if !e.run(j) {
			break
		}
	}
	e.teardown(nil)
}

// collectSetup waits for every rank's setup result.
func (e *entry) collectSetup() *Error {
	var setupErr error
	for i := 0; i < e.spec.procs; i++ {
		select {
		case r := <-e.results:
			if r.err != nil && setupErr == nil {
				setupErr = r.err
			}
		case <-e.runDone:
			return errf(CodeSessionAborted, 503, true,
				"session world died during setup: %v", e.world.Cause())
		}
	}
	if setupErr == nil {
		return nil
	}
	if errors.Is(setupErr, comm.ErrAborted) || errors.Is(setupErr, comm.ErrInjectedFault) {
		return errf(CodeSolveAborted, 500, true, "session aborted during setup: %v", setupErr)
	}
	return errf(CodeSetupFailed, 400, false,
		"backend %s rejected the staged system: %v", e.spec.backend, setupErr)
}

// nextJob returns the next job to serve, or nil when the entry should
// stop. After beginStop the remaining queue is still drained and served.
func (e *entry) nextJob() *job {
	select {
	case j := <-e.jobs:
		return j
	case <-e.stopCh:
		select {
		case j := <-e.jobs:
			return j
		default:
			return nil
		}
	case <-e.runDone:
		return nil
	}
}

// run serves one job as one solve round: every rank solves the job's
// right-hand sides, and the job gets one reply carrying its own result.
// It returns false when the world was poisoned and the entry must be
// torn down.
func (e *entry) run(j *job) bool {
	procs := e.spec.procs
	e.cur = j
	if e.rec != nil {
		// Telemetry entries report per round; ranks are idle here, so
		// the reset cannot race their recordings.
		e.rec.Reset()
	}

	start := time.Now()
	for r := 0; r < procs; r++ {
		e.rankJobs[r] <- j
	}
	var res core.SolveResult
	haveRes := false
	var stageErr error
	aborted := false
	for i := 0; i < procs; i++ {
		select {
		case r := <-e.results:
			if r.rank == 0 {
				res, haveRes = r.res, true
			} else if !haveRes {
				res = r.res
			}
			if r.res.Aborted || errors.Is(r.err, core.ErrSessionDead) {
				aborted = true
			} else if r.err != nil && r.res.FailReason == core.FailNone && stageErr == nil {
				stageErr = r.err
			}
		case <-e.runDone:
			aborted = true
			i = procs
		}
	}
	wall := time.Since(start)

	var jr jobResult
	switch {
	case aborted:
		e.svc.cnt.SessionsPoisoned.Add(1)
		jr.err = e.abortError(res, haveRes)
	case stageErr != nil:
		// The staged system is intact; the entry stays usable.
		jr.err = errf(CodeSetupFailed, 500, true, "right-hand-side staging failed: %v", stageErr)
	default:
		jr = jobResult{res: res, wall: wall}
		if e.rec != nil {
			rep := e.rec.Report(res.Backend)
			rep.Procs = procs
			rep.GlobalRows = e.spec.n
			rep.Iterations = res.Iterations
			rep.FinalResidual = res.Residual
			rep.Converged = res.Converged
			rep.WallSeconds = wall.Seconds()
			e.svc.agg.Record(rep)
			jr.report = rep
		}
		if j.wantSolution {
			jr.solution = e.assemble(j.nRhs)
		}
	}
	// The reply hands the job back to its handler, which may recycle it
	// immediately — no field of j may be touched after the send. The slot
	// is cleared first so the dispatcher's panic recovery never replies
	// twice to (or touches a recycled) job.
	e.cur = nil
	j.done <- jr
	return !aborted
}

// assemble gathers the global solution for the served job's nRhs
// right-hand sides from the per-rank buffers. Called only after every
// rank's result arrived, which orders the buffer writes before these
// reads.
func (e *entry) assemble(nRhs int) []float64 {
	n := e.spec.n
	sol := make([]float64, n*nRhs)
	for r := 0; r < e.spec.procs; r++ {
		lo, localN := e.starts[r], e.starts[r+1]-e.starts[r]
		x := e.rankX[r]
		for k := 0; k < nRhs; k++ {
			copy(sol[k*n+lo:k*n+lo+localN], x[k*localN:(k+1)*localN])
		}
	}
	return sol
}

// abortError translates an aborted round into the typed wire error.
func (e *entry) abortError(res core.SolveResult, haveRes bool) *Error {
	reason := res.AbortReason
	if !haveRes || reason == "" {
		reason = core.AbortReason(e.world.Cause())
	}
	status := 503
	switch reason {
	case "fault_injected":
		status = 500
	case "deadline_exceeded":
		status = 504
	}
	terr := errf(CodeSolveAborted, status, true,
		"solve aborted (%s); the pooled session was torn down and the next request rebuilds it", reason)
	terr.AbortReason = reason
	if haveRes {
		terr.FailReason = res.FailReason.String()
		terr.Attempts = res.Attempts
		terr.Backend = res.Backend
	} else {
		terr.FailReason = core.FailAborted.String()
	}
	return terr
}

// teardown marks the entry dead, releases the ranks, and fails
// everything still queued with a typed, retryable status. Dispatcher
// goroutine only; idempotent so the dispatcher's panic recovery can
// call it even when a round already began tearing down.
func (e *entry) teardown(terr *Error) {
	if e.torn {
		return
	}
	e.torn = true
	e.dead.Store(true)
	e.svc.dropEntry(e)
	for _, ch := range e.rankJobs {
		close(ch)
	}
	if terr == nil {
		terr = errf(CodeSessionAborted, 503, true,
			"pooled session was torn down before this request was served; retrying rebuilds it")
	}
	for {
		select {
		case j := <-e.jobs:
			j.done <- jobResult{err: terr}
		default:
			return
		}
	}
}
