package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/comm"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// SessionOptions configure OpenSession.
type SessionOptions struct {
	// Recorder receives the backend's telemetry (nil disables it).
	Recorder *telemetry.Recorder
	// SolveTimeout is the per-solve deadline applied on top of the
	// context passed to Solve; zero means no session-level deadline.
	SolveTimeout time.Duration
	// Params are LISI key=value parameters applied (in sorted key order,
	// for SPMD determinism) right after the component is opened.
	Params map[string]string

	// Workers requests an intra-rank worker pool of that size for the
	// backend's SpMV, reductions and mg's Jacobi smoother. Triangular
	// sweeps (ILU(0), ILUT, superlu) are serial at every worker count:
	// their levels are too thin to pay for one dispatch each
	// (docs/PERFORMANCE.md). Zero defers to the LISI_WORKERS
	// environment variable and, when that is unset too, leaves the
	// backend on its serial path. Results are
	// bitwise-identical for every worker count (see PERFORMANCE.md). An
	// explicit Params["workers"] wins over this field. Every backend
	// declares "workers"; superlu accepts it and builds no pool.
	Workers int

	// Failover names registry backends to try, in order, when the
	// active backend fails with a method-specific FailReason (never on
	// a cancellation or injected-fault abort — the world is poisoned
	// then). The staged system and parameters are re-staged into the
	// replacement automatically; parameters outside the replacement's
	// declared vocabulary are skipped. Collective: every rank walks the same
	// chain in lockstep. Each switch is counted in lisi.solve_failovers.
	Failover []string
}

// SolveResult is the decoded Status array of one Solve, plus the
// failover and cancellation outcome.
type SolveResult struct {
	Iterations     int
	Residual       float64
	Converged      bool
	Factorizations int

	// FailReason is the normalized failure classification (FailNone on
	// success) — the typed code the failover policy keys on.
	FailReason FailReason
	// Attempts counts the backend runs this Solve performed: 1, plus one
	// per failover switch.
	Attempts int
	// Backend is the registry name of the backend that produced this
	// result; it differs from the session's opening backend after a
	// failover.
	Backend string

	// Aborted is set when the solve was killed by context cancellation,
	// deadline expiry, or an injected fault; AbortReason distinguishes
	// them ("canceled", "deadline_exceeded", "fault_injected"). An
	// aborted solve poisons the session's world: the Session refuses
	// further calls and a fresh World must be created to solve again.
	Aborted     bool
	AbortReason string
}

// Session is the service-level lifecycle around one registry-opened
// solver backend on one SPMD rank: Open → Setup → Solve* → Close. Every
// rank of the Run region opens its own Session against the same backend
// name (the usual SPMD discipline). The Session owns per-solve deadlines
// — a Solve that overruns SessionOptions.SolveTimeout (or whose caller
// context is cancelled, e.g. by SIGINT) unblocks promptly on every rank
// and reports an aborted status instead of deadlocking — and it reuses
// the staged matrix across repeated solves through the component's
// matVer mechanism, so a second Solve against an unchanged matrix skips
// refactorization/operator rebuild.
type Session struct {
	info   BackendInfo
	solver SparseSolver
	c      *comm.Comm
	rec    *telemetry.Recorder
	opts   SessionOptions

	layout    *pmat.Layout
	nRhs      int
	matStaged bool
	rhsStaged bool
	closed    bool
	dead      bool // world poisoned by a cancelled/aborted solve

	// Staged-system references retained for failover re-staging: the
	// matrix-free operator, and only when a failover chain is configured
	// the local matrix block and a private copy of the right-hand sides.
	localA  *sparse.CSR
	mf      MatrixFree
	rhsCopy []float64

	solves    int
	aborted   int
	failovers int

	status [StatusLen]float64 // reused per-solve status staging
}

// ErrSessionClosed is returned by Session methods after Close.
var ErrSessionClosed = errors.New("core: session is closed")

// ErrSessionDead is returned once a solve was aborted: the underlying
// world is poisoned, so the session cannot be used again.
var ErrSessionDead = errors.New("core: session world aborted; open a new session on a fresh world")

// OpenSession opens the named backend from the registry, binds it to c,
// and applies the options. Collective over c's world: every rank must
// open the same backend.
func OpenSession(backend string, c *comm.Comm, opts SessionOptions) (*Session, error) {
	if c == nil {
		return nil, fmt.Errorf("core: OpenSession requires a communicator")
	}
	for _, name := range opts.Failover {
		if _, ok := Lookup(name); !ok {
			return nil, fmt.Errorf("core: failover backend %q is not registered", name)
		}
	}
	// Fold the Workers request (field, then LISI_WORKERS) into a private
	// copy of the parameter map so failover replays it too; an explicit
	// Params["workers"] wins.
	if w := resolveWorkers(opts.Workers); w > 0 {
		if _, dup := opts.Params["workers"]; !dup {
			p := make(map[string]string, len(opts.Params)+1)
			for k, v := range opts.Params {
				p[k] = v
			}
			p["workers"] = strconv.Itoa(w)
			opts.Params = p
		}
	}
	solver, info, err := openBackend(backend, c, opts.Recorder)
	if err != nil {
		return nil, err
	}
	if err := setParams(solver, opts.Params, nil); err != nil {
		return nil, fmt.Errorf("core: session %w", err)
	}
	s := &Session{info: info, solver: solver, c: c, rec: opts.Recorder, opts: opts}
	s.rec.SetLabel("backend", info.Name)
	return s, nil
}

// openBackend opens the named registry backend on c with rec attached.
func openBackend(name string, c *comm.Comm, rec *telemetry.Recorder) (SparseSolver, BackendInfo, error) {
	solver, err := Open(name)
	if err != nil {
		return nil, BackendInfo{}, err
	}
	info, _ := Lookup(name)
	if ins, ok := solver.(Instrumented); ok {
		ins.SetRecorder(rec)
	}
	if code := solver.Initialize(c); code != OK {
		return nil, info, Check(code)
	}
	return solver, info, nil
}

// Backend returns the descriptor of the backend this session drives.
func (s *Session) Backend() BackendInfo { return s.info }

// Solver exposes the underlying component for interface extensions the
// Session does not wrap (VBR/FEM staging, typed parameter setters).
func (s *Session) Solver() SparseSolver { return s.solver }

// Set applies one LISI parameter.
func (s *Session) Set(key, value string) error {
	if err := s.usable(); err != nil {
		return err
	}
	if code := s.solver.Set(key, value); code != OK {
		return fmt.Errorf("core: session set %s=%s: %w", key, value, Check(code))
	}
	return nil
}

// Setup stages this rank's block of the matrix: l describes the
// block-row partition and a holds the local rows with global column
// indices. Repeated Setup calls stage a new system; the component's
// matVer versioning decides how much previous factorization/operator
// work is reusable.
func (s *Session) Setup(l *pmat.Layout, a *sparse.CSR) error {
	return s.setup(l, a, nil, a != nil, "Setup requires a layout and a local matrix")
}

// SetupOperator stages a matrix-free operator instead of an assembled
// matrix: the distribution comes from l and operator application is
// delegated to mf (paper §5.5).
func (s *Session) SetupOperator(l *pmat.Layout, mf MatrixFree) error {
	return s.setup(l, nil, mf, mf != nil, "SetupOperator requires a layout and an operator")
}

// setup stages a or mf through stage; the last one staged is what the
// session solves, and what a failover re-stages.
func (s *Session) setup(l *pmat.Layout, a *sparse.CSR, mf MatrixFree, given bool, refusal string) error {
	if err := s.usable(); err != nil {
		return err
	}
	if l == nil || !given {
		return errors.New("core: session " + refusal)
	}
	if err := stage(s.solver, l, a, mf); err != nil {
		return err
	}
	s.layout, s.mf, s.localA = l, mf, nil
	if len(s.opts.Failover) > 0 {
		s.localA = a // only the failover walk re-stages it
	}
	s.matStaged = true
	return nil
}

// SetupRHS stages nRhs right-hand sides (numLocalRow values each,
// back-to-back), as in §5.2c.
func (s *Session) SetupRHS(b []float64, nRhs int) error {
	if err := s.usable(); err != nil {
		return err
	}
	if !s.matStaged {
		return Check(ErrBadState)
	}
	if code := s.solver.SetupRHS(b, s.layout.LocalN, nRhs); code != OK {
		return Check(code)
	}
	if len(s.opts.Failover) > 0 {
		// Failover re-stages the right-hand sides into the replacement
		// backend, so the session needs its own copy (the caller may
		// mutate b after staging). Capacity reuse keeps re-staging a
		// same-sized rhs allocation-free.
		need := s.layout.LocalN * nRhs
		if cap(s.rhsCopy) < need {
			s.rhsCopy = make([]float64, need)
		}
		s.rhsCopy = s.rhsCopy[:need]
		copy(s.rhsCopy, b[:need])
	}
	s.nRhs = nRhs
	s.rhsStaged = true
	return nil
}

// Solve solves the staged system into x (LocalN·nRhs values) under ctx
// plus the session's per-solve timeout. On cancellation, deadline
// expiry, or an injected fault every rank's Solve returns a result with
// Aborted set and an error wrapping the context cause; the abort is
// also recorded in telemetry as PhaseAborted with an "abort_reason"
// label.
//
// Each backend runs once: every backend starts from x = 0, so running a
// failed backend again repeats its failure to the bit. A typed failure
// leaves the session usable. When a Failover chain is configured,
// failover-eligible failures walk the chain, re-staging the system into
// each replacement backend in turn. The walk is SPMD deterministic:
// every rank takes the same decisions because they derive from the
// collectively identical FailReason.
func (s *Session) Solve(ctx context.Context, x []float64) (SolveResult, error) {
	if err := s.usable(); err != nil {
		return SolveResult{}, err
	}
	if !s.matStaged || !s.rhsStaged {
		return SolveResult{}, Check(ErrBadState)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if s.opts.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.SolveTimeout)
		defer cancel()
	}
	s.solves++

	res, err := s.solveOnce(ctx, x)
	res.Attempts, res.Backend = 1, s.info.Name
	if err == nil || res.Aborted || !res.FailReason.FailoverEligible() || len(s.opts.Failover) == 0 {
		return res, err
	}
	for _, name := range s.opts.Failover {
		if name == s.info.Name {
			continue
		}
		if ferr := s.failoverTo(name); ferr != nil {
			// The replacement could not accept the staged system (e.g. a
			// direct backend offered a matrix-free operator); keep walking.
			continue
		}
		s.failovers++
		s.rec.Add("lisi.solve_failovers", 1)
		attempts := res.Attempts + 1
		res, err = s.solveOnce(ctx, x)
		res.Attempts, res.Backend = attempts, s.info.Name
		if err == nil || res.Aborted {
			return res, err
		}
	}
	return res, err
}

// solveOnce performs exactly one backend run and decodes its status.
func (s *Session) solveOnce(ctx context.Context, x []float64) (SolveResult, error) {
	start := time.Now()
	status := s.status[:]
	for i := range status {
		status[i] = 0
	}
	code, abortCause := s.solveRecover(ctx, x, status)
	if abortCause != nil {
		s.dead = true
		s.aborted++
		// The session is dead and will refuse every further call, so
		// nothing can rebuild the component's resources: release them
		// now (worker-pool goroutines must not outlive the Run region
		// even when the caller never reaches Close).
		if rh, ok := s.solver.(resourceHolder); ok {
			rh.releaseResources()
		}
		reason := AbortReason(abortCause)
		s.rec.AddPhase(telemetry.PhaseAborted, time.Since(start))
		s.rec.Add("lisi.solves_aborted", 1)
		s.rec.SetLabel("abort_reason", reason)
		res := SolveResult{Aborted: true, AbortReason: reason, FailReason: FailAborted}
		return res, fmt.Errorf("%w: %w", Check(ErrAborted), abortCause)
	}
	res := SolveResult{
		Iterations:     int(status[StatusIterations]),
		Residual:       status[StatusResidual],
		Converged:      status[StatusConverged] == 1,
		Factorizations: int(status[StatusFactorizations]),
		FailReason:     failReasonFromStatus(status),
	}
	if code != OK {
		if res.FailReason == FailNone {
			// The component failed before reaching its solver (bad state,
			// unsupported mode): normalize from the status code alone.
			switch code {
			case ErrUnsupported:
				res.FailReason = FailUnsupported
			default:
				res.FailReason = FailBreakdown
			}
		}
		s.rec.SetLabel("fail_reason", res.FailReason.String())
		return res, Check(code)
	}
	return res, nil
}

// stage hands one rank's distribution and operator to a component: the
// §6.3 setters, then setupMatrix (CSR) with a's rows, or SetMatrixFree
// when mf is set; the last staging call wins, so either replaces what
// was staged before. It stops at the first refusal. Every staging inside the package goes through it
// except DriverComponent.SolveProblem, which keeps its explicit calls:
// it is the Figure 3 application code the paper shows unchanged across
// swaps.
func stage(solver SparseSolver, l *pmat.Layout, a *sparse.CSR, mf MatrixFree) error {
	code := solver.SetStartRow(l.Start)
	if code == OK {
		code = solver.SetLocalRows(l.LocalN)
	}
	if code == OK {
		code = solver.SetGlobalCols(l.N)
	}
	switch {
	case code != OK:
	case mf != nil:
		code = solver.SetMatrixFree(mf)
	default:
		if code = solver.SetLocalNNZ(a.NNZ()); code == OK {
			code = solver.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, len(a.RowPtr), a.NNZ())
		}
	}
	return Check(code)
}

// failoverTo opens the named registry backend, replays the session's
// parameters (skipping keys outside the replacement's vocabulary) and
// re-stages the retained system and right-hand sides into it. On any
// error the active backend is left untouched.
func (s *Session) failoverTo(name string) error {
	solver, info, err := openBackend(name, s.c, s.rec)
	if err != nil {
		return err
	}
	if err := setParams(solver, s.opts.Params, info.Params); err != nil {
		return err
	}
	if err := stage(solver, s.layout, s.localA, s.mf); err != nil {
		return err
	}
	if code := solver.SetupRHS(s.rhsCopy, s.layout.LocalN, s.nRhs); code != OK {
		return Check(code)
	}
	if rh, ok := s.solver.(resourceHolder); ok {
		rh.releaseResources()
	}
	s.solver = solver
	s.info = info
	s.rec.SetLabel("backend", info.Name)
	return nil
}

// solveRecover runs the backend's Solve under World.AbortOn(ctx),
// converting the comm layer's abort panic into the world's recorded
// cause. Any other panic propagates unchanged. A context that is already
// dead poisons the world without entering the backend.
//
// The watcher deliberately replaces the earlier design of rebinding a
// context-carrying communicator into the component per solve: that
// rebind bumped the distribution version — forcing a layout rebuild
// every cancellable solve — and, worse, the component's version-keyed
// operator cache kept the layout (and its bound communicator) from the
// solve that built it, so a pooled session's second cancellable solve
// aborted on the previous call's expired context. With the watcher the
// component only ever sees the session's communicator, which carries no
// context, so every cache stays warm and nothing can capture a dead one.
func (s *Session) solveRecover(ctx context.Context, x, status []float64) (code int, abortCause error) {
	w := s.c.World()
	stop := w.AbortOn(ctx)
	defer func() {
		// A watcher that fired after the backend's last communication
		// call still poisoned the world: reporting success would hand
		// out a live-looking session with a dead world.
		abortCause = stop()
		if p := recover(); p != nil {
			if p != comm.ErrAborted {
				panic(p)
			}
			if abortCause = w.Cause(); abortCause == nil {
				abortCause = comm.ErrAborted
			}
		}
	}()
	if ctx.Err() != nil {
		return 0, nil // AbortOn poisoned the world; stop reports the cause
	}
	return s.solver.Solve(x, status, s.layout.LocalN, StatusLen), nil
}

// AbortReason names what killed a world, from the cause it recorded:
// "fault_injected", "deadline_exceeded", "canceled" (any other cause,
// comm.ErrAborted included), or "aborted" when none was recorded.
func AbortReason(cause error) string {
	switch {
	case cause == nil:
		return "aborted"
	case errors.Is(cause, comm.ErrInjectedFault):
		return "fault_injected"
	case errors.Is(cause, context.DeadlineExceeded):
		return "deadline_exceeded"
	default:
		return "canceled"
	}
}

// Stats returns how many solves this session ran and how many aborted.
func (s *Session) Stats() (solves, aborted int) { return s.solves, s.aborted }

// Failovers returns how many backend switches this session performed.
func (s *Session) Failovers() int { return s.failovers }

// resolveWorkers turns the SessionOptions.Workers field (or, when that
// is zero, the LISI_WORKERS environment variable) into a worker count;
// 0 means "no request".
func resolveWorkers(w int) int {
	if w > 0 {
		return w
	}
	if v := os.Getenv("LISI_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 1 {
			return n
		}
	}
	return 0
}

// resourceHolder is implemented by components that own releasable
// resources (today: the intra-rank worker pool); Close and failover
// release them so sessions never leak pool goroutines.
type resourceHolder interface {
	releaseResources()
}

// Close ends the session. The component is released (worker pools are
// shut down); further calls return ErrSessionClosed. Close is
// idempotent.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if rh, ok := s.solver.(resourceHolder); ok {
		rh.releaseResources()
	}
	s.solver = nil
	return nil
}

func (s *Session) usable() error {
	if s.closed {
		return ErrSessionClosed
	}
	if s.dead {
		return ErrSessionDead
	}
	return nil
}
