// Package chaos is the seeded chaos harness pinning the fault-injection
// and resilience layers: it runs one full mesh→session→solve pipeline
// under a deterministic fault.Spec and classifies how the run ended.
// Every schedule must end in exactly one of the Outcome values — never
// a hang, never an unpoisoned partial result — and, because the
// injector's decisions are a pure function of the spec, a failing
// schedule replays byte for byte from the printed spec (locally via the
// cmds' -fault-spec flag; see docs/TESTING.md).
package chaos

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

// Outcome classifies how a chaos run ended.
type Outcome string

const (
	// OutcomeConverged: the opening backend solved the system; the
	// harness verified the residual against the staged operator.
	OutcomeConverged Outcome = "converged"
	// OutcomeFailover: the opening backend failed with a typed reason
	// and a failover backend then solved the system (residual verified).
	OutcomeFailover Outcome = "failover"
	// OutcomeTypedFailure: the solve failed cleanly with a non-aborted
	// typed FailReason on every rank; the world stayed healthy.
	OutcomeTypedFailure Outcome = "typed_failure"
	// OutcomeAborted: an injected crash (or the harness deadline)
	// poisoned the world; every rank reported Aborted and the world
	// carries a cancellation cause.
	OutcomeAborted Outcome = "aborted"
)

// Config describes one chaos run.
type Config struct {
	// Backend is the registry backend the session opens.
	Backend string
	// Procs is the world size.
	Procs int
	// GridN sizes the §8[a] model problem (mesh.PaperProblem).
	GridN int
	// Matrix, when non-nil, replaces the model problem with an explicit
	// global operator (e.g. ingested from a Matrix Market file): each
	// rank takes its block-row slice and GridN is ignored. RHS is the
	// global right-hand side; nil means all ones.
	Matrix *sparse.CSR
	RHS    []float64
	// Params are the LISI parameters for the backend.
	Params map[string]string
	// Failover is the session's failover chain (may be empty).
	Failover []string
	// Spec is the fault schedule. The zero spec injects nothing.
	Spec fault.Spec
	// Deadline bounds the whole run (default 60s): a schedule that
	// wedges the pipeline shows up as OutcomeAborted, not a hung test.
	Deadline time.Duration
}

// Result is the classified end state of one chaos run.
type Result struct {
	Outcome Outcome
	// Solve is rank 0's SolveResult (ranks agree; the harness checks).
	Solve core.SolveResult
	// Err is rank 0's Solve error (nil on success).
	Err error
	// RunErr is the Run region's error.
	RunErr error
	// Cause is the world's cancellation cause (nil unless poisoned).
	Cause error
	// Residual is the verified ‖b−Ax‖ on success, -1 otherwise.
	Residual float64
	// Injections summarizes what the injector actually did ("op=n,...").
	Injections string
}

// String renders the result for seed-replay logs.
func (r Result) String() string {
	return fmt.Sprintf("outcome=%s backend=%s attempts=%d reason=%s injected[%s] residual=%g",
		r.Outcome, r.Solve.Backend, r.Solve.Attempts, r.Solve.FailReason, r.Injections, r.Residual)
}

// Run executes one seeded chaos schedule and classifies the outcome.
// The error return reports harness failures (bad config, rank
// disagreement) — injected faults never surface there.
func Run(cfg Config) (Result, error) {
	if cfg.Procs < 1 {
		return Result{}, fmt.Errorf("chaos: need at least one proc")
	}
	if cfg.GridN == 0 {
		cfg.GridN = 12
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 60 * time.Second
	}
	p := mesh.PaperProblem(cfg.GridN)
	n := p.N()
	if cfg.Matrix != nil {
		if cfg.Matrix.Rows != cfg.Matrix.Cols {
			return Result{}, fmt.Errorf("chaos: explicit operator is %dx%d, not square", cfg.Matrix.Rows, cfg.Matrix.Cols)
		}
		n = cfg.Matrix.Rows
		if cfg.RHS != nil && len(cfg.RHS) != n {
			return Result{}, fmt.Errorf("chaos: rhs has %d values for a %dx%d operator", len(cfg.RHS), n, n)
		}
	}
	w, err := comm.NewWorld(cfg.Procs)
	if err != nil {
		return Result{}, err
	}
	inj := fault.New(cfg.Spec, cfg.Procs)
	w.SetFaultHook(inj)

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
	defer cancel()

	type rankEnd struct {
		res      core.SolveResult
		err      error
		residual float64
		setupErr error
	}
	ends := make([]rankEnd, cfg.Procs)
	runErr := w.RunContext(ctx, func(c *comm.Comm) {
		e := &ends[c.Rank()]
		e.residual = -1
		l, err := pmat.EvenLayout(c, n)
		if err != nil {
			e.setupErr = err
			return
		}
		var a *sparse.CSR
		var b []float64
		if cfg.Matrix != nil {
			a = cfg.Matrix.SubMatrix(l.Start, l.Start+l.LocalN)
			b = make([]float64, l.LocalN)
			for i := range b {
				b[i] = 1
			}
			if cfg.RHS != nil {
				copy(b, cfg.RHS[l.Start:l.Start+l.LocalN])
			}
		} else if a, b, err = p.GenerateLocal(l); err != nil {
			e.setupErr = err
			return
		}
		s, err := core.OpenSession(cfg.Backend, c, core.SessionOptions{
			Params:   cfg.Params,
			Failover: cfg.Failover,
		})
		if err != nil {
			e.setupErr = err
			return
		}
		if err := s.Setup(l, a); err != nil {
			e.setupErr = err
			return
		}
		if err := s.SetupRHS(b, 1); err != nil {
			e.setupErr = err
			return
		}
		x := make([]float64, l.LocalN)
		e.res, e.err = s.Solve(ctx, x)
		if e.err == nil {
			// Verify the answer against the staged operator — a chaos
			// run may end "converged" only with a true solution. Safe to
			// gate the collective Residual on e.err: Solve's failover
			// decisions derive from a collectively identical
			// FailReason (see core/session.go), so every rank returns the
			// same error disposition and takes the same branch here.
			m, err := pmat.NewMat(l, a)
			if err != nil {
				e.setupErr = err
				return
			}
			e.residual = m.Residual(b, x)
		}
	})

	res := Result{
		Solve:      ends[0].res,
		Err:        ends[0].err,
		RunErr:     runErr,
		Cause:      w.Cause(),
		Residual:   ends[0].residual,
		Injections: inj.Counts(),
	}
	for r := range ends {
		if ends[r].setupErr != nil && res.Cause == nil {
			return res, fmt.Errorf("chaos: rank %d setup failed outside injection: %w", r, ends[r].setupErr)
		}
		if ends[r].res.Aborted != ends[0].res.Aborted {
			return res, fmt.Errorf("chaos: rank %d abort state disagrees with rank 0", r)
		}
	}

	switch {
	case ends[0].res.Aborted || runErr != nil:
		// Either the solve reported the abort, or the world died before
		// or outside Solve (e.g. a crash during the setup collectives).
		if w.Cause() == nil {
			return res, errors.New("chaos: aborted run left no world cause (unpoisoned partial result)")
		}
		res.Outcome = OutcomeAborted
	case ends[0].err == nil:
		if res.Residual < 0 || res.Residual > 1e-4 {
			return res, fmt.Errorf("chaos: run classified converged but residual is %g", res.Residual)
		}
		if ends[0].res.Backend != cfg.Backend {
			res.Outcome = OutcomeFailover
		} else {
			res.Outcome = OutcomeConverged
		}
	case ends[0].res.FailReason != core.FailNone && ends[0].res.FailReason != core.FailAborted:
		res.Outcome = OutcomeTypedFailure
	default:
		return res, fmt.Errorf("chaos: unclassifiable end state: err=%v reason=%s", ends[0].err, ends[0].res.FailReason)
	}
	return res, nil
}
