package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// Config sizes the service. The zero value is usable: withDefaults
// fills every limit with a production-shaped default.
type Config struct {
	// DefaultProcs is the world size used when a request omits procs;
	// MaxProcs bounds what a request may ask for.
	DefaultProcs int
	MaxProcs     int
	// DefaultWorkers is the intra-rank worker-pool size used when a
	// request omits workers (normally 1, i.e. serial kernels);
	// MaxWorkers bounds what a request may ask for.
	DefaultWorkers int
	MaxWorkers     int
	// MaxSessions caps the pooled sessions (each owns an SPMD world);
	// beyond it the least-recently-used idle session is evicted, and
	// when every session is busy new operators are shed (pool_full).
	MaxSessions int
	// QueueDepth bounds each pooled session's request queue; beyond it
	// requests are shed with queue_full (429).
	QueueDepth int
	// MaxPending caps admitted-but-unfinished requests server-wide
	// (overloaded, 503); TenantMaxPending caps them per tenant
	// (tenant_quota_exceeded, 429).
	MaxPending       int
	TenantMaxPending int
	// MaxNRHS bounds one request's nrhs; MaxUnknowns bounds the global
	// system dimension.
	MaxNRHS     int
	MaxUnknowns int
	// MaxBodyBytes bounds a request body (HTTP layer).
	MaxBodyBytes int64
	// SolveTimeout is the pooled sessions' per-solve deadline
	// (core.SessionOptions.SolveTimeout); 0 disables it.
	SolveTimeout time.Duration
	// DrainTimeout bounds Drain before in-flight worlds are aborted
	// (used by cmd/lisi-serve's signal handler).
	DrainTimeout time.Duration

	// EnableFaultInjection honors per-request fault specs. It only has
	// effect in binaries built with the faultinject tag; chaos testing
	// only, never production.
	EnableFaultInjection bool
	// FaultSpec arms every newly built pooled session's world with this
	// schedule (fault.ParseSpec syntax) — server-level chaos, exercising
	// poisoned-session teardown and rebuild. Requires the faultinject
	// build tag and EnableFaultInjection.
	FaultSpec string
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.DefaultProcs, 1)
	def(&c.MaxProcs, 8)
	def(&c.DefaultWorkers, 1)
	def(&c.MaxWorkers, 16)
	def(&c.MaxSessions, 64)
	def(&c.QueueDepth, 32)
	def(&c.MaxPending, 1024)
	def(&c.TenantMaxPending, 128)
	def(&c.MaxNRHS, 16)
	def(&c.MaxUnknowns, 1<<21)
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 60 * time.Second
	}
	return c
}

// errFaultNotCompiled marks a fault spec that the running binary cannot
// honor (built without the faultinject tag).
var errFaultNotCompiled = errors.New(
	"fault injection is not compiled into this binary (build with -tags faultinject)")

// counters are the service-wide aggregate counters published via
// /v1/stats and expvar. All fields are atomic; names mirror the JSON.
type counters struct {
	Requests         atomic.Int64
	Solved           atomic.Int64
	SolveFailed      atomic.Int64 // typed non-converged FailReasons
	SolveAborted     atomic.Int64
	ShedDraining     atomic.Int64
	ShedOverloaded   atomic.Int64
	ShedTenantQuota  atomic.Int64
	ShedQueueFull    atomic.Int64
	ShedPoolFull     atomic.Int64
	SessionsBuilt    atomic.Int64
	SessionsEvicted  atomic.Int64
	SessionsPoisoned atomic.Int64
	FaultRequests    atomic.Int64
}

func (c *counters) snapshot() map[string]int64 {
	return map[string]int64{
		"requests":          c.Requests.Load(),
		"solved":            c.Solved.Load(),
		"solve_failed":      c.SolveFailed.Load(),
		"solve_aborted":     c.SolveAborted.Load(),
		"shed_draining":     c.ShedDraining.Load(),
		"shed_overloaded":   c.ShedOverloaded.Load(),
		"shed_tenant_quota": c.ShedTenantQuota.Load(),
		"shed_queue_full":   c.ShedQueueFull.Load(),
		"shed_pool_full":    c.ShedPoolFull.Load(),
		"sessions_built":    c.SessionsBuilt.Load(),
		"sessions_evicted":  c.SessionsEvicted.Load(),
		"sessions_poisoned": c.SessionsPoisoned.Load(),
		"fault_requests":    c.FaultRequests.Load(),
	}
}

// tenantState tracks one tenant's quota pressure and counters.
type tenantState struct {
	pending  atomic.Int64
	requests atomic.Int64
	solved   atomic.Int64
	shed     atomic.Int64
}

// TenantStats is one tenant's row in Stats.
type TenantStats struct {
	Pending  int64 `json:"pending"`
	Requests int64 `json:"requests"`
	Solved   int64 `json:"solved"`
	Shed     int64 `json:"shed"`
}

// Stats is the /v1/stats body.
type Stats struct {
	Draining bool                   `json:"draining"`
	Sessions int                    `json:"sessions"`
	Pending  int64                  `json:"pending"`
	Counters map[string]int64       `json:"counters"`
	Tenants  map[string]TenantStats `json:"tenants"`
}

// Service is the solver front end. Create with New, serve with
// Handler(), stop with Drain.
type Service struct {
	cfg Config
	agg *telemetry.Aggregator
	cnt counters

	mu      sync.Mutex
	entries map[poolKey]*entry
	tenants map[string]*tenantState

	pending  atomic.Int64
	draining atomic.Bool
	closed   atomic.Bool

	// admitMu serializes admission (wg.Add) against Drain flipping
	// accepting: Add may never race a Wait that saw a zero counter, so
	// Drain clears accepting under admitMu before it starts waiting.
	admitMu   sync.Mutex
	accepting bool
	wg        sync.WaitGroup

	jobs sync.Pool // *job, recycled across requests

	// dispatchGate, when non-nil, holds every session dispatcher before
	// its first job — a test hook that lets tests fill queues
	// deterministically.
	dispatchGate chan struct{}
}

// New builds a Service. It fails fast on an unusable configuration —
// in particular a server-level FaultSpec that does not parse or is not
// compiled in (faultinject build tag).
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.FaultSpec != "" {
		if !cfg.EnableFaultInjection {
			return nil, errors.New("service: FaultSpec set without EnableFaultInjection")
		}
		if _, err := newFaultHook(cfg.FaultSpec, 1); err != nil {
			return nil, fmt.Errorf("service: server fault spec: %w", err)
		}
	}
	s := &Service{
		cfg:       cfg,
		agg:       telemetry.NewAggregator(),
		entries:   make(map[poolKey]*entry),
		tenants:   make(map[string]*tenantState),
		accepting: true,
	}
	s.jobs.New = func() any { return &job{done: make(chan jobResult, 1)} }
	return s, nil
}

// Aggregator exposes the telemetry sink (for expvar publication).
func (s *Service) Aggregator() *telemetry.Aggregator { return s.agg }

// Draining reports whether the service is shedding new work.
func (s *Service) Draining() bool { return s.draining.Load() }

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	sessions := len(s.entries)
	tenants := make(map[string]TenantStats, len(s.tenants))
	for name, t := range s.tenants {
		tenants[name] = TenantStats{
			Pending:  t.pending.Load(),
			Requests: t.requests.Load(),
			Solved:   t.solved.Load(),
			Shed:     t.shed.Load(),
		}
	}
	s.mu.Unlock()
	return Stats{
		Draining: s.draining.Load(),
		Sessions: sessions,
		Pending:  s.pending.Load(),
		Counters: s.cnt.snapshot(),
		Tenants:  tenants,
	}
}

func (s *Service) tenant(name string) *tenantState {
	s.mu.Lock()
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantState{}
		s.tenants[name] = t
	}
	s.mu.Unlock()
	return t
}

// Solve runs one request through admission, the session pool and the
// solver, filling resp. The returned *Error is nil on a completed solve
// (including typed non-converged outcomes, reported in resp.FailReason).
// ctx is the caller's cancellation scope and is threaded into the
// backend solve; cancelling it aborts the solve on every rank.
func (s *Service) Solve(ctx context.Context, req *SolveRequest, resp *SolveResponse) *Error {
	if s.closed.Load() {
		return errf(CodeServerClosed, 503, true, "server has drained and is shutting down")
	}
	if err := s.validate(req); err != nil {
		return err
	}
	t := s.tenant(req.Tenant)
	s.cnt.Requests.Add(1)
	t.requests.Add(1)

	s.admitMu.Lock()
	if !s.accepting {
		closed := s.closed.Load()
		s.admitMu.Unlock()
		t.shed.Add(1)
		s.cnt.ShedDraining.Add(1)
		if closed {
			return errf(CodeServerClosed, 503, true, "server has drained and is shutting down")
		}
		return errf(CodeDraining, 503, true, "server is draining; retry against another instance")
	}
	s.wg.Add(1)
	s.admitMu.Unlock()
	defer s.wg.Done()
	if s.pending.Add(1) > int64(s.cfg.MaxPending) {
		s.pending.Add(-1)
		t.shed.Add(1)
		s.cnt.ShedOverloaded.Add(1)
		return errf(CodeOverloaded, 503, true, "server-wide pending cap %d reached", s.cfg.MaxPending)
	}
	defer s.pending.Add(-1)
	if t.pending.Add(1) > int64(s.cfg.TenantMaxPending) {
		t.pending.Add(-1)
		t.shed.Add(1)
		s.cnt.ShedTenantQuota.Add(1)
		return errf(CodeTenantQuota, 429, true, "tenant %q pending cap %d reached", req.Tenant, s.cfg.TenantMaxPending)
	}
	defer t.pending.Add(-1)

	if req.FaultSpec != "" {
		return s.solveFaulted(ctx, req, resp, t)
	}

	e, reused, err := s.entryFor(req, t)
	if err != nil {
		return err
	}
	resp.SessionReused = reused
	return s.dispatchJob(ctx, e, req, resp, t)
}

// dispatchJob enqueues the request on e and waits for its result.
func (s *Service) dispatchJob(ctx context.Context, e *entry, req *SolveRequest, resp *SolveResponse, t *tenantState) *Error {
	j := s.jobs.Get().(*job)
	j.ctx = ctx
	j.n = e.spec.n
	j.nRhs = req.nrhs()
	j.rhs = req.RHS
	if j.rhs == nil {
		j.rhs = onesRHS(e.spec.n * j.nRhs)
	}
	j.wantSolution = req.ReturnSolution

	select {
	case e.jobs <- j:
	default:
		t.shed.Add(1)
		s.cnt.ShedQueueFull.Add(1)
		s.jobs.Put(j)
		return errf(CodeQueueFull, 429, true, "session queue for operator %s@%d is full (depth %d)",
			req.Operator.ID, req.Operator.Version, s.cfg.QueueDepth)
	}
	e.pending.Add(1)
	defer e.pending.Add(-1)

	var r jobResult
	select {
	case r = <-j.done:
	case <-e.runDone:
		// The session's world died before serving the job; the
		// dispatcher may still have replied in the same instant.
		select {
		case r = <-j.done:
		default:
			s.cnt.SolveAborted.Add(1)
			return errf(CodeSessionAborted, 503, true,
				"pooled session died before this request was served; retry rebuilds it")
		}
	case <-ctx.Done():
		// The caller is gone. The job still completes (or dies with the
		// world the cancelled solve poisons); the job must not be
		// recycled while the dispatcher can still touch it.
		return errf(CodeSolveAborted, 503, true, "request cancelled: %v", context.Cause(ctx))
	}
	err := s.finishJob(req, resp, &r, t)
	s.jobs.Put(j)
	return err
}

// finishJob translates a jobResult into the response or a typed error.
func (s *Service) finishJob(req *SolveRequest, resp *SolveResponse, r *jobResult, t *tenantState) *Error {
	if r.err != nil {
		if r.err.Code == CodeSolveAborted || r.err.Code == CodeSessionAborted {
			s.cnt.SolveAborted.Add(1)
		}
		return r.err
	}
	res := r.res
	resp.Tenant = req.Tenant
	resp.Backend = res.Backend
	resp.OperatorID = req.Operator.ID
	resp.OperatorVersion = req.Operator.Version
	resp.Iterations = res.Iterations
	resp.Residual = res.Residual
	resp.Converged = res.Converged
	resp.FailReason = res.FailReason.String()
	resp.Attempts = res.Attempts
	resp.NRHS = req.nrhs()
	resp.SolveWallS = r.wall.Seconds()
	resp.Solution = r.solution
	resp.Report = r.report
	if res.FailReason == core.FailNone {
		s.cnt.Solved.Add(1)
		t.solved.Add(1)
	} else {
		s.cnt.SolveFailed.Add(1)
	}
	return nil
}

// entryFor returns the pooled session for the request's key, building
// (and, at capacity, evicting) as needed. The bool reports reuse.
func (s *Service) entryFor(req *SolveRequest, t *tenantState) (*entry, bool, *Error) {
	key := req.key()
	s.mu.Lock()
	if e, found, rerr := s.reuseLocked(key, req); found {
		s.mu.Unlock()
		return e, rerr == nil, rerr
	}
	s.mu.Unlock()
	// Resolve the operator outside the lock: sparse.NewCSR validates
	// bodies up to MaxBodyBytes, and one large build must not stall
	// admission, tenant lookups or /v1/stats.
	spec, err := s.buildSpec(req)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if e, found, rerr := s.reuseLocked(key, req); found {
		// Lost the build race to a concurrent request for the same key;
		// use the winner's session.
		s.mu.Unlock()
		return e, rerr == nil, rerr
	}
	if len(s.entries) >= s.cfg.MaxSessions {
		if !s.evictIdleLocked() {
			s.mu.Unlock()
			t.shed.Add(1)
			s.cnt.ShedPoolFull.Add(1)
			return nil, false, errf(CodePoolFull, 503, true,
				"session pool is at capacity (%d) with every session busy", s.cfg.MaxSessions)
		}
	}
	e, nerr := newEntry(s, key, spec)
	if nerr != nil {
		s.mu.Unlock()
		return nil, false, nerr
	}
	s.entries[key] = e
	e.lastUse = time.Now()
	s.cnt.SessionsBuilt.Add(1)
	s.mu.Unlock()
	e.start()
	return e, false, nil
}

// reuseLocked resolves key against the pool. found reports a live
// pooled entry; the *Error is then non-nil if the request cannot ride
// it. The RHS length check matters here: validate cannot size-check a
// request that omits the operator body (n is unknown), and buildSpec
// never runs on the reuse path — without this check a short RHS reaches
// rankLoop's per-rank copy and panics a rank. A dead entry is pruned.
// Caller holds s.mu.
func (s *Service) reuseLocked(key poolKey, req *SolveRequest) (*entry, bool, *Error) {
	e, ok := s.entries[key]
	if !ok {
		return nil, false, nil
	}
	if e.dead.Load() {
		delete(s.entries, key)
		return nil, false, nil
	}
	if cerr := operatorConflict(req, &e.spec); cerr != nil {
		return nil, true, cerr
	}
	if req.RHS != nil && len(req.RHS) != e.spec.n*req.nrhs() {
		return nil, true, errf(CodeBadRequest, 400, false,
			"rhs has %d values, want n*nrhs = %d", len(req.RHS), e.spec.n*req.nrhs())
	}
	e.lastUse = time.Now()
	return e, true, nil
}

// operatorConflict rejects a request whose operator body disagrees with
// the one already pooled under the same id@version — versions are
// immutable; a changed operator must bump Operator.Version.
func operatorConflict(req *SolveRequest, spec *entrySpec) *Error {
	switch {
	case req.Operator.GridN > 0 && req.Operator.GridN != spec.gridN:
		return errf(CodeOperatorConflict, 409, false,
			"operator %s@%d is pooled with grid_n=%d, request says %d; bump operator.version",
			req.Operator.ID, req.Operator.Version, spec.gridN, req.Operator.GridN)
	case req.Operator.Matrix != nil && (spec.matrix == nil || req.Operator.Matrix.N != spec.n):
		return errf(CodeOperatorConflict, 409, false,
			"operator %s@%d is pooled with a different operator body; bump operator.version",
			req.Operator.ID, req.Operator.Version)
	case req.Operator.MatrixMarket != "" && spec.matrix == nil:
		return errf(CodeOperatorConflict, 409, false,
			"operator %s@%d is pooled with grid_n=%d, request carries a matrix_market body; bump operator.version",
			req.Operator.ID, req.Operator.Version, spec.gridN)
	}
	return nil
}

// evictIdleLocked drops the least-recently-used session with no pending
// work. Caller holds s.mu.
func (s *Service) evictIdleLocked() bool {
	var victim *entry
	var victimKey poolKey
	for k, e := range s.entries {
		if e.pending.Load() > 0 {
			continue
		}
		if victim == nil || e.lastUse.Before(victim.lastUse) {
			victim, victimKey = e, k
		}
	}
	if victim == nil {
		return false
	}
	delete(s.entries, victimKey)
	s.cnt.SessionsEvicted.Add(1)
	victim.beginStop()
	return true
}

// dropEntry removes a dead session from the pool (dispatcher teardown).
func (s *Service) dropEntry(e *entry) {
	s.mu.Lock()
	if cur, ok := s.entries[e.key]; ok && cur == e {
		delete(s.entries, e.key)
	}
	s.mu.Unlock()
}

// buildSpec resolves the request's operator into an entrySpec. It can
// validate multi-megabyte operator bodies, so it runs outside s.mu.
func (s *Service) buildSpec(req *SolveRequest) (entrySpec, *Error) {
	spec := entrySpec{
		tenant:    req.Tenant,
		backend:   req.Backend,
		procs:     req.procs(s.cfg.DefaultProcs),
		workers:   req.workers(s.cfg.DefaultWorkers),
		params:    req.Params,
		opID:      req.Operator.ID,
		opVer:     req.Operator.Version,
		telemetry: req.Telemetry,
		timeout:   s.cfg.SolveTimeout,
		failover:  req.Failover,
	}
	switch {
	case req.Operator.GridN > 0:
		spec.gridN = req.Operator.GridN
		spec.n = req.Operator.GridN * req.Operator.GridN
	case req.Operator.Matrix != nil:
		m := req.Operator.Matrix
		a, err := sparse.NewCSR(m.N, m.N, m.RowPtr, m.ColInd, m.Vals)
		if err != nil {
			return spec, errf(CodeBadRequest, 400, false, "operator matrix: %v", err)
		}
		spec.matrix = a
		spec.n = m.N
	case req.Operator.MatrixMarket != "":
		a, err := sparse.ReadMatrixMarket(strings.NewReader(req.Operator.MatrixMarket))
		if err != nil {
			return spec, errf(CodeBadRequest, 400, false, "operator matrix_market: %v", err)
		}
		if a.Rows != a.Cols {
			return spec, errf(CodeBadRequest, 400, false,
				"operator matrix_market: %dx%d matrix is not square", a.Rows, a.Cols)
		}
		// validate() cannot size an unparsed .mtx body, so the unknown
		// cap is enforced here, after the (64MB-bounded) parse.
		if a.Rows > s.cfg.MaxUnknowns {
			return spec, errf(CodeBadRequest, 400, false,
				"system dimension %d exceeds the limit %d", a.Rows, s.cfg.MaxUnknowns)
		}
		spec.matrix = a
		spec.n = a.Rows
	default:
		return spec, errf(CodeOperatorMissing, 409, false,
			"operator %s@%d is not pooled; the first request must carry operator.matrix or operator.grid_n",
			req.Operator.ID, req.Operator.Version)
	}
	if spec.n < spec.procs {
		return spec, errf(CodeBadRequest, 400, false,
			"system dimension %d is smaller than the world size %d", spec.n, spec.procs)
	}
	if req.RHS != nil && len(req.RHS) != spec.n*req.nrhs() {
		return spec, errf(CodeBadRequest, 400, false,
			"rhs has %d values, want n*nrhs = %d", len(req.RHS), spec.n*req.nrhs())
	}
	if s.cfg.FaultSpec != "" {
		hook, err := newFaultHook(s.cfg.FaultSpec, spec.procs)
		if err != nil {
			return spec, errf(CodeBadFaultSpec, 400, false, "server fault spec: %v", err)
		}
		spec.hook = hook
	}
	return spec, nil
}

// solveFaulted serves a request carrying a fault spec on a dedicated,
// unpooled session so the injected schedule cannot poison pooled state
// shared with other tenants' requests.
func (s *Service) solveFaulted(ctx context.Context, req *SolveRequest, resp *SolveResponse, t *tenantState) *Error {
	if !s.cfg.EnableFaultInjection {
		return errf(CodeFaultDisabled, 403, false,
			"fault injection is disabled on this server (chaos builds only)")
	}
	procs := req.procs(s.cfg.DefaultProcs)
	hook, err := newFaultHook(req.FaultSpec, procs)
	if err != nil {
		if errors.Is(err, errFaultNotCompiled) {
			return errf(CodeFaultDisabled, 403, false, "%v", err)
		}
		return errf(CodeBadFaultSpec, 400, false, "%v", err)
	}
	spec, serr := s.buildSpec(req)
	if serr != nil {
		if serr.Code == CodeOperatorMissing {
			// A faulted request never reuses pooled operators; be explicit.
			serr.Message = "fault-spec requests use a dedicated session and must carry the operator body"
		}
		return serr
	}
	spec.hook = hook
	s.cnt.FaultRequests.Add(1)
	e, nerr := newEntry(s, poolKey{}, spec)
	if nerr != nil {
		return nerr
	}
	e.start()
	defer e.beginStop()
	return s.dispatchJob(ctx, e, req, resp, t)
}

// Drain sheds new requests, waits for in-flight solves to finish (they
// run under their per-solve SolveTimeout), then stops every pooled
// session. When ctx expires first, the remaining worlds are aborted —
// their requests get typed solve_aborted statuses — and Drain returns
// ctx's cause; a clean drain returns nil.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	// Stop admission before waiting: once accepting is false no Solve
	// can wg.Add, so Wait never observes a zero counter that a late
	// request then bumps (the documented WaitGroup misuse window).
	s.admitMu.Lock()
	s.accepting = false
	s.admitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = context.Cause(ctx)
		s.mu.Lock()
		aborting := make([]*entry, 0, len(s.entries))
		for _, e := range s.entries {
			aborting = append(aborting, e)
		}
		s.mu.Unlock()
		// Stop first so dispatchers exit their wait loops, then poison
		// the worlds so in-flight collectives unwind; stranded requests
		// get typed solve_aborted/session_aborted replies, which is what
		// lets wg drain.
		for _, e := range aborting {
			e.beginStop()
			e.world.Abort()
		}
		<-done
	}
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.entries = make(map[poolKey]*entry)
	s.mu.Unlock()
	for _, e := range entries {
		e.beginStop()
	}
	for _, e := range entries {
		<-e.runDone
	}
	s.closed.Store(true)
	return forced
}

// Close force-drains with the configured DrainTimeout (test teardown).
func (s *Service) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Drain(ctx)
}

// validate checks the request's shape against the configured limits.
func (s *Service) validate(req *SolveRequest) *Error {
	if req.Tenant == "" {
		return errf(CodeBadRequest, 400, false, "tenant is required")
	}
	if len(req.Tenant) > 128 {
		return errf(CodeBadRequest, 400, false, "tenant name longer than 128 bytes")
	}
	if req.Backend == "" {
		return errf(CodeBadRequest, 400, false, "backend is required (one of %s)", strings.Join(core.Names(), ", "))
	}
	if _, ok := core.Lookup(req.Backend); !ok {
		return errf(CodeUnknownBackend, 400, false, "unknown backend %q (registered: %s)",
			req.Backend, strings.Join(core.Names(), ", "))
	}
	for _, name := range req.Failover {
		if _, ok := core.Lookup(name); !ok {
			return errf(CodeUnknownBackend, 400, false, "unknown failover backend %q (registered: %s)",
				name, strings.Join(core.Names(), ", "))
		}
	}
	if req.Procs < 0 || req.procs(s.cfg.DefaultProcs) > s.cfg.MaxProcs {
		return errf(CodeBadRequest, 400, false, "procs %d outside [1,%d]", req.Procs, s.cfg.MaxProcs)
	}
	if req.Workers < 0 || req.workers(s.cfg.DefaultWorkers) > s.cfg.MaxWorkers {
		return errf(CodeBadRequest, 400, false, "workers %d outside [1,%d]", req.Workers, s.cfg.MaxWorkers)
	}
	if req.Operator.ID == "" {
		return errf(CodeBadRequest, 400, false, "operator.id is required")
	}
	if req.Operator.Version < 0 {
		return errf(CodeBadRequest, 400, false, "operator.version must be >= 0")
	}
	if req.Operator.GridN > 0 && req.Operator.Matrix != nil {
		return errf(CodeBadRequest, 400, false, "operator.grid_n and operator.matrix are exclusive")
	}
	if req.Operator.MatrixMarket != "" && (req.Operator.GridN > 0 || req.Operator.Matrix != nil) {
		return errf(CodeBadRequest, 400, false, "operator.matrix_market is exclusive with grid_n and matrix")
	}
	if req.NRHS < 0 || req.nrhs() > s.cfg.MaxNRHS {
		return errf(CodeBadRequest, 400, false, "nrhs %d outside [1,%d]", req.NRHS, s.cfg.MaxNRHS)
	}
	n := 0
	switch {
	case req.Operator.GridN > 0:
		n = req.Operator.GridN * req.Operator.GridN
	case req.Operator.Matrix != nil:
		n = req.Operator.Matrix.N
	}
	if n > s.cfg.MaxUnknowns {
		return errf(CodeBadRequest, 400, false, "system dimension %d exceeds the limit %d", n, s.cfg.MaxUnknowns)
	}
	return nil
}

// nrhs returns the request's effective right-hand-side count.
func (r *SolveRequest) nrhs() int {
	if r.NRHS <= 0 {
		return 1
	}
	return r.NRHS
}

// procs returns the request's effective world size.
func (r *SolveRequest) procs(def int) int {
	if r.Procs <= 0 {
		return def
	}
	return r.Procs
}

// workers returns the request's effective intra-rank worker count.
func (r *SolveRequest) workers(def int) int {
	if r.Workers <= 0 {
		return def
	}
	return r.Workers
}

// poolKey identifies a pooled session: everything that shapes its
// identity — tenant, backend, world size, operator version, parameters
// and the failover chain. It is a comparable struct, not a joined
// string, so no free-form field (a tenant or operator id containing a
// separator, a parameter value spelling out the next parameter) can
// run into its neighbour and make two different requests share a
// session.
type poolKey struct {
	tenant, backend string
	procs, workers  int
	opID            string
	opVersion       int
	// telemetry sessions carry a recorder (residual traces allocate),
	// so they pool separately from the zero-allocation fast path.
	telemetry bool
	params    string // lenPrefixed (key, value) pairs in sorted key order
	failover  string // lenPrefixed backend names in request order
}

// lenPrefixed appends each string behind its byte length, an encoding
// no choice of contents can make ambiguous.
func lenPrefixed(b []byte, ss ...string) []byte {
	for _, s := range ss {
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, ':')
		b = append(b, s...)
	}
	return b
}

// key returns the request's pool key. Memoized: the steady-state
// request path must not rebuild it per solve.
func (r *SolveRequest) key() poolKey {
	if r.keyed {
		return r.poolKey
	}
	names := make([]string, 0, len(r.Params))
	for k := range r.Params {
		names = append(names, k)
	}
	sort.Strings(names)
	var params []byte
	for _, k := range names {
		params = lenPrefixed(params, k, r.Params[k])
	}
	r.poolKey = poolKey{
		tenant: r.Tenant, backend: r.Backend, procs: r.Procs, workers: r.Workers,
		opID: r.Operator.ID, opVersion: r.Operator.Version,
		telemetry: r.Telemetry,
		params:    string(params), failover: string(lenPrefixed(nil, r.Failover...)),
	}
	r.keyed = true
	return r.poolKey
}

// onesRHS returns an all-ones right-hand side (the convenience default
// for requests that omit rhs).
func onesRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return b
}
