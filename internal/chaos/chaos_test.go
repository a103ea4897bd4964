// Chaos suite: seeded randomized fault schedules replayed across every
// registered backend. Each schedule must end in exactly one classified
// Outcome — converged (residual-verified), clean typed failure,
// successful failover, or a poisoned-world abort — never a hang and
// never an unpoisoned partial result. Every run logs its full spec; to
// replay a failure locally:
//
//	CHAOS_SEED=<seed> go test ./internal/chaos -run TestChaosSchedules -v
//	go run ./cmd/lisi-solve -procs 4 -fault-spec '<logged spec>'
package chaos_test

import (
	"errors"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sparse"
)

// chaosParams parameterize each registered backend for the chaos
// matrix; like the core conformance table, a newly registered backend
// must be added here (TestChaosSchedules fails otherwise).
var chaosParams = map[string]map[string]string{
	"petsc":    {"solver": "gmres", "preconditioner": "jacobi", "tol": "1e-8", "maxits": "5000"},
	"trilinos": {"solver": "gmres", "preconditioner": "jacobi", "tol": "1e-8", "maxits": "5000"},
	"superlu":  {},
	"mg":       {"tol": "1e-10"},
}

// runChaos guards a chaos run against harness hangs: the harness has
// its own deadline, so the outer timer only fires on a real deadlock.
func runChaos(t *testing.T, cfg chaos.Config) chaos.Result {
	t.Helper()
	type out struct {
		res chaos.Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		r, e := chaos.Run(cfg)
		ch <- out{r, e}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("chaos harness error: %v (replay spec: %s)", o.err, cfg.Spec)
		}
		return o.res
	case <-time.After(2 * cfg.Deadline):
		t.Fatalf("chaos run hung past its own deadline (replay spec: %s)", cfg.Spec)
		return chaos.Result{}
	}
}

// seeds returns the schedule seeds: CHAOS_SEED pins a single seed (the
// CI matrix and local replays use this), otherwise a fixed default set.
func seeds(t *testing.T) []int64 {
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q is not an integer", v)
		}
		return []int64{s}
	}
	return []int64{1, 7, 42}
}

// TestChaosSchedules is the main chaos matrix: every backend under
// randomized delay/reorder/stall schedules with a small crash
// probability, each run classified and (on success paths)
// residual-verified by the harness.
func TestChaosSchedules(t *testing.T) {
	for _, name := range core.Names() {
		params, ok := chaosParams[name]
		if !ok {
			t.Fatalf("backend %q is registered but has no chaos parameters; add it to chaosParams", name)
		}
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds(t) {
				// Two flavors per seed: pure jitter (a healthy network
				// having a bad day — must still reach a clean end state)
				// and lethal (crashes armed — aborts become reachable).
				jitter := fault.Spec{
					Seed:      seed,
					PDelay:    0.05,
					MaxDelay:  500 * time.Microsecond,
					PReorder:  0.05,
					ReorderBy: 500 * time.Microsecond,
					PStall:    0.01,
					StallFor:  2 * time.Millisecond,
					CrashRank: -1,
					After:     10,
				}
				lethal := jitter
				lethal.PCrash = 0.0005
				for _, spec := range []fault.Spec{jitter, lethal} {
					cfg := chaos.Config{
						Backend:  name,
						Procs:    4,
						GridN:    9,
						Params:   params,
						Spec:     spec,
						Deadline: 60 * time.Second,
					}
					res := runChaos(t, cfg)
					t.Logf("backend=%s seed=%d: %s\n  replay: CHAOS_SEED=%d go test ./internal/chaos -run TestChaosSchedules -v\n  spec: %s",
						name, seed, res, seed, spec)
					switch res.Outcome {
					case chaos.OutcomeConverged, chaos.OutcomeTypedFailure, chaos.OutcomeFailover:
						// Classified clean end states; the harness already
						// verified the residual/typing invariants.
					case chaos.OutcomeAborted:
						if spec.PCrash == 0 {
							t.Errorf("crash-free schedule aborted: cause=%v (spec %s)", res.Cause, spec)
						} else if res.Cause == nil {
							t.Errorf("aborted outcome without a cause (spec %s)", spec)
						} else if !errors.Is(res.Cause, comm.ErrInjectedFault) {
							t.Errorf("aborted with non-injected cause %v (spec %s)", res.Cause, spec)
						}
					default:
						t.Errorf("unknown outcome %q (spec %s)", res.Outcome, spec)
					}
				}
			}
		})
	}
}

// TestChaosReplayIdentical: a crash-free schedule must replay byte for
// byte — same outcome, same injection counts, same solver trajectory.
// (Crash schedules replay their decision streams too, but surviving
// ranks' event counts truncate at the racy abort point, so exact-count
// equality is only guaranteed without a crash.)
func TestChaosReplayIdentical(t *testing.T) {
	spec := fault.Spec{
		Seed:      99,
		PDelay:    0.2,
		MaxDelay:  300 * time.Microsecond,
		PReorder:  0.1,
		ReorderBy: 300 * time.Microsecond,
		CrashRank: -1,
	}
	cfg := chaos.Config{
		Backend:  "petsc",
		Procs:    4,
		GridN:    9,
		Params:   chaosParams["petsc"],
		Spec:     spec,
		Deadline: 60 * time.Second,
	}
	a := runChaos(t, cfg)
	b := runChaos(t, cfg)
	if a.Outcome != b.Outcome {
		t.Errorf("outcome differs across replays: %s vs %s", a.Outcome, b.Outcome)
	}
	if a.Injections != b.Injections {
		t.Errorf("injection counts differ across replays: %q vs %q", a.Injections, b.Injections)
	}
	if a.Solve.Iterations != b.Solve.Iterations || a.Solve.FailReason != b.Solve.FailReason ||
		a.Solve.Backend != b.Solve.Backend || a.Solve.Attempts != b.Solve.Attempts {
		t.Errorf("solve trajectory differs across replays:\n %+v\n %+v", a.Solve, b.Solve)
	}
	t.Logf("replayed: %s (spec %s)", a, spec)
}

// TestChaosForcedFailover pins the resilience path end to end: petsc
// capped at one iteration fails with FailMaxIterations, then the session
// fails over to superlu which solves the system.
func TestChaosForcedFailover(t *testing.T) {
	cfg := chaos.Config{
		Backend: "petsc",
		Procs:   4,
		GridN:   9,
		Params: map[string]string{
			"solver": "gmres", "preconditioner": "none",
			"tol": "1e-12", "maxits": "1",
		},
		Failover: []string{"superlu"},
		Deadline: 60 * time.Second,
	}
	res := runChaos(t, cfg)
	if res.Outcome != chaos.OutcomeFailover {
		t.Fatalf("outcome = %s, want failover (%s)", res.Outcome, res)
	}
	if res.Solve.Backend != "superlu" {
		t.Errorf("final backend = %q, want superlu", res.Solve.Backend)
	}
	if res.Solve.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one capped petsc run + one superlu run)", res.Solve.Attempts)
	}
	if res.Residual < 0 || res.Residual > 1e-6 {
		t.Errorf("failover result residual = %g", res.Residual)
	}
}

// TestChaosTypedFailureWithoutFailover: the same capped solver with no
// failover chain must end as a clean typed failure, not an abort.
func TestChaosTypedFailureWithoutFailover(t *testing.T) {
	cfg := chaos.Config{
		Backend: "petsc",
		Procs:   2,
		GridN:   9,
		Params: map[string]string{
			"solver": "gmres", "preconditioner": "none",
			"tol": "1e-12", "maxits": "1",
		},
		Deadline: 60 * time.Second,
	}
	res := runChaos(t, cfg)
	if res.Outcome != chaos.OutcomeTypedFailure {
		t.Fatalf("outcome = %s, want typed_failure (%s)", res.Outcome, res)
	}
	if res.Solve.FailReason != core.FailMaxIterations {
		t.Errorf("FailReason = %s, want max_iterations", res.Solve.FailReason)
	}
}

// TestChaosInjectedCrash: a guaranteed crash on rank 1 after the setup
// phase must end as a poisoned-world abort with the injected cause, on
// every backend's pipeline shape.
func TestChaosInjectedCrash(t *testing.T) {
	spec := fault.Spec{
		Seed:      5,
		PCrash:    1,
		CrashRank: 1,
		After:     20,
	}
	cfg := chaos.Config{
		Backend:  "petsc",
		Procs:    4,
		GridN:    9,
		Params:   chaosParams["petsc"],
		Spec:     spec,
		Deadline: 60 * time.Second,
	}
	res := runChaos(t, cfg)
	if res.Outcome != chaos.OutcomeAborted {
		t.Fatalf("outcome = %s, want aborted (%s)", res.Outcome, res)
	}
	if !errors.Is(res.Cause, comm.ErrInjectedFault) {
		t.Errorf("world cause = %v, want chain containing comm.ErrInjectedFault", res.Cause)
	}
	if res.Solve.Aborted && res.Solve.AbortReason != "fault_injected" {
		t.Errorf("AbortReason = %q, want fault_injected", res.Solve.AbortReason)
	}
}

// TestChaosMatrixMarketOperator extends the chaos matrix to ingested
// operators: the same typed-outcome contract must hold when the system
// comes from a Matrix Market corpus file instead of the mesh generator.
// One crash-free jitter schedule must reach a clean classified end
// state, and one guaranteed-crash schedule must end as a poisoned-world
// abort — never a hang, never an unpoisoned partial result.
func TestChaosMatrixMarketOperator(t *testing.T) {
	f, err := os.Open("../../testdata/corpus/lap49_sym.mtx")
	if err != nil {
		t.Fatal(err)
	}
	a, err := sparse.ReadMatrixMarket(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	base := chaos.Config{
		Backend:  "petsc",
		Procs:    4,
		Matrix:   a,
		Params:   chaosParams["petsc"],
		Deadline: 60 * time.Second,
	}

	t.Run("crash-free", func(t *testing.T) {
		cfg := base
		cfg.Spec = fault.Spec{
			Seed:      17,
			PDelay:    0.1,
			MaxDelay:  500 * time.Microsecond,
			PReorder:  0.05,
			ReorderBy: 500 * time.Microsecond,
			PStall:    0.01,
			StallFor:  2 * time.Millisecond,
			CrashRank: -1,
			After:     10,
		}
		res := runChaos(t, cfg)
		t.Logf("mm operator: %s (spec %s)", res, cfg.Spec)
		switch res.Outcome {
		case chaos.OutcomeConverged, chaos.OutcomeTypedFailure, chaos.OutcomeFailover:
			// Clean classified end states; residual verified by the harness.
		default:
			t.Errorf("crash-free schedule on the mm operator ended %s: cause=%v (spec %s)",
				res.Outcome, res.Cause, cfg.Spec)
		}
	})

	t.Run("lethal", func(t *testing.T) {
		cfg := base
		cfg.Spec = fault.Spec{
			Seed:      17,
			PCrash:    1,
			CrashRank: 2,
			After:     20,
		}
		res := runChaos(t, cfg)
		t.Logf("mm operator: %s (spec %s)", res, cfg.Spec)
		if res.Outcome != chaos.OutcomeAborted {
			t.Fatalf("outcome = %s, want aborted (%s)", res.Outcome, res)
		}
		if !errors.Is(res.Cause, comm.ErrInjectedFault) {
			t.Errorf("world cause = %v, want chain containing comm.ErrInjectedFault", res.Cause)
		}
	})
}
