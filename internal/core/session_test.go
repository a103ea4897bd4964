package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// conformanceParams parameterize each registered backend for the shared
// conformance run below. Registering a new backend without adding an
// entry here fails TestRegistryConformance — the registry and the
// conformance gate grow together.
var conformanceParams = map[string]map[string]string{
	"petsc":    iterativeParams,
	"trilinos": iterativeParams,
	"superlu":  {},
	"mg":       {"grid_n": "9", "tol": "1e-10"},
}

// TestRegistryConformance drives every registered backend through the
// identical Open → Setup → Solve* → Close lifecycle (the CI conformance
// job): same problem, same partitioning, solution checked against the
// serial direct reference, staged-matrix reuse verified on the second
// solve, and lifecycle errors after Close.
func TestRegistryConformance(t *testing.T) {
	p := mesh.PaperProblem(9)
	ref := referenceSolution(t, p)
	for _, name := range Names() {
		params, ok := conformanceParams[name]
		if !ok {
			t.Fatalf("backend %q is registered but has no conformance parameters; add it to conformanceParams", name)
		}
		t.Run(name, func(t *testing.T) {
			run(t, 2, func(c *comm.Comm) {
				l, err := pmat.EvenLayout(c, p.N())
				if err != nil {
					t.Fatal(err)
				}
				localA, localB, err := p.GenerateLocal(l)
				if err != nil {
					t.Fatal(err)
				}
				s, err := OpenSession(name, c, SessionOptions{Params: params})
				if err != nil {
					t.Fatal(err)
				}
				if s.Backend().Name != name {
					t.Errorf("Backend().Name = %q, want %q", s.Backend().Name, name)
				}
				if err := s.Setup(l, localA); err != nil {
					t.Fatal(err)
				}
				if err := s.SetupRHS(localB, 1); err != nil {
					t.Fatal(err)
				}
				x := make([]float64, l.LocalN)
				res, err := s.Solve(context.Background(), x)
				if err != nil {
					t.Fatalf("%s solve: %v", name, err)
				}
				if !res.Converged {
					t.Fatalf("%s did not converge (residual %g)", name, res.Residual)
				}
				got := pmat.AllGather(l, x)
				for i := range ref {
					if e := math.Abs(got[i] - ref[i]); e > 1e-5 {
						t.Fatalf("%s: x[%d] error %g vs reference", name, i, e)
					}
				}

				// Second solve against the unchanged staged matrix: the
				// matVer mechanism must reuse the factorization/operator.
				res2, err := s.Solve(context.Background(), x)
				if err != nil {
					t.Fatalf("%s re-solve: %v", name, err)
				}
				if res2.Factorizations > res.Factorizations {
					t.Errorf("%s re-solve refactored: %d -> %d factorizations",
						name, res.Factorizations, res2.Factorizations)
				}
				if solves, aborted := s.Stats(); solves != 2 || aborted != 0 {
					t.Errorf("%s session stats = (%d, %d), want (2, 0)", name, solves, aborted)
				}

				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Errorf("second Close: %v, want nil (idempotent)", err)
				}
				if _, err := s.Solve(context.Background(), x); !errors.Is(err, ErrSessionClosed) {
					t.Errorf("Solve after Close = %v, want ErrSessionClosed", err)
				}
			})
		})
	}
}

func TestRegistryOpenUnknown(t *testing.T) {
	_, err := Open("nosuchsolver")
	if err == nil {
		t.Fatal("Open of unknown backend succeeded")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-backend error %q does not list %q", err, name)
		}
	}
}

func TestRegistryNames(t *testing.T) {
	want := []string{"mg", "petsc", "superlu", "trilinos"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v (sorted)", got, want)
		}
	}
	for _, name := range got {
		info, ok := Lookup(name)
		if !ok || info.Class == "" || info.Kind == "" || info.Doc == "" {
			t.Errorf("Lookup(%q) = %+v, %v; want a fully described backend", name, info, ok)
		}
	}
}

// TestReadmeBackendTable keeps the README's backend table generated from
// the registry: the block between the backends markers must equal
// BackendTableMarkdown() exactly.
func TestReadmeBackendTable(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- backends:begin -->", "<!-- backends:end -->"
	text := string(data)
	i := strings.Index(text, begin)
	j := strings.Index(text, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README.md is missing the %s / %s markers", begin, end)
	}
	got := strings.TrimSpace(text[i+len(begin) : j])
	want := strings.TrimSpace(BackendTableMarkdown())
	if got != want {
		t.Errorf("README backend table is out of date; regenerate with `go run ./cmd/lisi-demo -backends`\n--- README ---\n%s\n--- registry ---\n%s", got, want)
	}
}

// slowOp is a deliberately slow matrix-free operator: a local diagonal
// with a handful of distinct eigenvalues (so Krylov methods need several
// iterations) whose every application sleeps, guaranteeing a short
// deadline fires mid-iteration.
type slowOp struct {
	delay time.Duration
	start int // first global row of this rank
}

func (o *slowOp) MatMult(id ID, x, y []float64, length int) int {
	time.Sleep(o.delay)
	for i := 0; i < length; i++ {
		y[i] = float64(2+(o.start+i)%5) * x[i]
	}
	return OK
}

// TestSessionSolveDeadlineAborts is the tentpole acceptance scenario: a
// solve with a 50ms deadline against a deliberately slow operator must
// return an aborted status on every rank, after the deadline fired, with
// no goroutine leak, and the abort must be recorded in telemetry. A rank
// the deadline fails to unblock hangs the test; go test -timeout catches
// that.
func TestSessionSolveDeadlineAborts(t *testing.T) {
	const procs, timeout = 4, 50 * time.Millisecond
	before := runtime.NumGoroutine()
	p := mesh.PaperProblem(8)
	w, err := comm.NewWorld(procs)
	if err != nil {
		t.Fatal(err)
	}
	var results [procs]SolveResult
	var errs [procs]error
	var took [procs]time.Duration
	recs := make([]*telemetry.Recorder, procs)
	runErr := w.Run(func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, p.N())
		if err != nil {
			t.Error(err)
			return
		}
		rec := telemetry.New()
		recs[c.Rank()] = rec
		s, err := OpenSession("petsc", c, SessionOptions{
			Recorder:     rec,
			SolveTimeout: timeout,
			Params: map[string]string{
				"solver": "gmres", "preconditioner": "none",
				"tol": "1e-300", "maxits": "1000000",
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.SetupOperator(l, &slowOp{delay: 10 * time.Millisecond, start: l.Start}); err != nil {
			t.Error(err)
			return
		}
		b := make([]float64, l.LocalN)
		for i := range b {
			b[i] = 1
		}
		if err := s.SetupRHS(b, 1); err != nil {
			t.Error(err)
			return
		}
		x := make([]float64, l.LocalN)
		start := time.Now()
		res, err := s.Solve(context.Background(), x)
		took[c.Rank()] = time.Since(start)
		results[c.Rank()] = res
		errs[c.Rank()] = err

		// The session is now dead: further use must fail cleanly, not
		// touch the poisoned world.
		if err := s.SetupRHS(b, 1); !errors.Is(err, ErrSessionDead) {
			t.Errorf("rank %d: SetupRHS after abort = %v, want ErrSessionDead", c.Rank(), err)
		}
	})

	if !errors.Is(runErr, context.DeadlineExceeded) {
		t.Fatalf("Run error = %v, want context.DeadlineExceeded cause", runErr)
	}
	for r := 0; r < procs; r++ {
		// The deadline is set inside Solve, so it fires no earlier than
		// timeout after the call: a rank back sooner did not wait for it.
		if took[r] < timeout {
			t.Errorf("rank %d: Solve returned after %v, before its %v deadline fired", r, took[r], timeout)
		}
		if !results[r].Aborted {
			t.Errorf("rank %d: Aborted = false, want true (err=%v)", r, errs[r])
		}
		if results[r].AbortReason != "deadline_exceeded" {
			t.Errorf("rank %d: AbortReason = %q, want deadline_exceeded", r, results[r].AbortReason)
		}
		if !errors.Is(errs[r], context.DeadlineExceeded) {
			t.Errorf("rank %d: Solve error = %v, want context.DeadlineExceeded in chain", r, errs[r])
		}
		var codeErr error = Check(ErrAborted)
		if errs[r] == nil || !strings.Contains(errs[r].Error(), codeErr.Error()) {
			t.Errorf("rank %d: Solve error %v does not carry the ErrAborted status text", r, errs[r])
		}
		if got := recs[r].PhaseSeconds(telemetry.PhaseAborted); got <= 0 {
			t.Errorf("rank %d: PhaseAborted not recorded", r)
		}
		if got := recs[r].Counter("lisi.solves_aborted"); got != 1 {
			t.Errorf("rank %d: lisi.solves_aborted = %d, want 1", r, got)
		}
	}

	// No goroutine may outlive the Run region (RunContext watchers,
	// blocked ranks, context timers).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak after aborted solve: %d > %d\n%s", now, before, buf[:n])
	}
}

// TestSessionCancelViaRunContext covers the SIGINT-shaped path: the
// region context (as a cmd would wire from signal.NotifyContext) is
// cancelled externally while every rank is mid-solve.
func TestSessionCancelViaRunContext(t *testing.T) {
	const procs = 2
	p := mesh.PaperProblem(8)
	w, err := comm.NewWorld(procs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(30*time.Millisecond, cancel)
	var aborted [procs]bool
	runErr := w.RunContext(ctx, func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, p.N())
		if err != nil {
			t.Error(err)
			return
		}
		s, err := OpenSession("petsc", c, SessionOptions{Params: map[string]string{
			"solver": "gmres", "preconditioner": "none",
			"tol": "1e-300", "maxits": "1000000",
		}})
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.SetupOperator(l, &slowOp{delay: 5 * time.Millisecond, start: l.Start}); err != nil {
			t.Error(err)
			return
		}
		b := make([]float64, l.LocalN)
		for i := range b {
			b[i] = 1
		}
		if err := s.SetupRHS(b, 1); err != nil {
			t.Error(err)
			return
		}
		x := make([]float64, l.LocalN)
		res, _ := s.Solve(ctx, x)
		aborted[c.Rank()] = res.Aborted
	})
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", runErr)
	}
	for r, ab := range aborted {
		if !ab {
			t.Errorf("rank %d: solve not reported aborted", r)
		}
	}
}

// TestAbortReason pins the one cause → abort_reason mapping that Session
// results, telemetry labels and the service's wire errors all share.
func TestAbortReason(t *testing.T) {
	for _, tc := range []struct {
		cause error
		want  string
	}{
		{nil, "aborted"},
		{comm.ErrAborted, "canceled"},
		{fmt.Errorf("rank 1: %w", comm.ErrInjectedFault), "fault_injected"},
		{context.DeadlineExceeded, "deadline_exceeded"},
		{context.Canceled, "canceled"},
	} {
		if got := AbortReason(tc.cause); got != tc.want {
			t.Errorf("AbortReason(%v) = %q, want %q", tc.cause, got, tc.want)
		}
	}
}

// TestSessionLifecycleOrder: staging and solving out of order fail with
// LISI's state error, not a panic.
func TestSessionLifecycleOrder(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		s, err := OpenSession("superlu", c, SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 4)
		if _, err := s.Solve(context.Background(), x); err == nil {
			t.Error("Solve before Setup succeeded")
		}
		if err := s.SetupRHS([]float64{1, 2, 3, 4}, 1); err == nil {
			t.Error("SetupRHS before Setup succeeded")
		}
		if err := s.Set("ordering", "natural"); err != nil {
			t.Errorf("Set: %v", err)
		}
		if err := s.Set("nosuchkey", "1"); err == nil {
			t.Error("unknown key accepted")
		}
	})
}

// BenchmarkSessionReuseSolve measures the per-solve cost of a session
// whose matrix stays staged: the direct backend must reuse its
// factorization (triangular solves only) and the Krylov backend its
// operator, so this tracks the session + matVer reuse overhead. Guarded
// by scripts/benchguard.sh against BENCH_BASELINE.json.
func BenchmarkSessionReuseSolve(b *testing.B) {
	b.ReportAllocs()
	for _, tc := range []struct {
		name   string
		params map[string]string
	}{
		{"superlu", map[string]string{}},
		{"petsc", map[string]string{"solver": "gmres", "preconditioner": "jacobi", "tol": "1e-8", "maxits": "500"}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			p := mesh.PaperProblem(16)
			a, rhs, err := p.GenerateGlobal()
			if err != nil {
				b.Fatal(err)
			}
			w, err := comm.NewWorld(1)
			if err != nil {
				b.Fatal(err)
			}
			runErr := w.Run(func(c *comm.Comm) {
				l, err := pmat.EvenLayout(c, p.N())
				if err != nil {
					b.Fatal(err)
				}
				s, err := OpenSession(tc.name, c, SessionOptions{Params: tc.params})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Setup(l, a); err != nil {
					b.Fatal(err)
				}
				if err := s.SetupRHS(rhs, 1); err != nil {
					b.Fatal(err)
				}
				x := make([]float64, l.LocalN)
				if _, err := s.Solve(context.Background(), x); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Zero the initial guess: warm-starting an iterative
					// method from the exact solution degenerates (zero
					// residual), and a cold start is what the reuse path
					// costs in practice.
					for j := range x {
						x[j] = 0
					}
					if _, err := s.Solve(context.Background(), x); err != nil {
						b.Fatal(err)
					}
				}
			})
			if runErr != nil {
				b.Fatal(runErr)
			}
		})
	}
}

// emptyColumnSystem is a 40-row diagonally dominant system with every
// entry of column 5 removed: structurally singular, so superlu's factor
// fails on any ordering.
func emptyColumnSystem(t *testing.T) (*sparse.CSR, []float64) {
	t.Helper()
	a := sparse.RandomDiagDominant(40, 4, 15)
	coo := sparse.NewCOO(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.RowView(i)
		for k, j := range cols {
			if j != 5 {
				coo.Append(i, j, vals[k])
			}
		}
	}
	s := coo.ToCSR()
	return s, onesFor(s)
}

// TestSessionFailedSolveReproduces pins why Session runs a backend once
// per Solve: every backend starts from x = 0, so a failed solve is a pure
// function of the staged system. A second Solve on the same session, into
// the x the first one left, repeats the first one's FailReason, iteration
// count, residual and x to the bit, and a typed failure leaves the
// session usable.
func TestSessionFailedSolveReproduces(t *testing.T) {
	cases := []struct {
		name, backend string
		params        map[string]string
		sys           testSystem
		want          FailReason
	}{
		{"petsc/gmres+ilu", "petsc", map[string]string{"solver": "gmres", "preconditioner": "ilu", "maxits": "3"}, paperSystem(20), FailMaxIterations},
		{"petsc/cg+jacobi", "petsc", map[string]string{"solver": "cg", "preconditioner": "jacobi", "maxits": "3"}, paperSystem(20), FailBreakdown},
		{"trilinos/gmres+jacobi", "trilinos", map[string]string{"solver": "gmres", "preconditioner": "jacobi", "maxits": "3"}, paperSystem(20), FailMaxIterations},
		{"trilinos/bicgstab+domdecomp", "trilinos", map[string]string{"solver": "bicgstab", "preconditioner": "domdecomp", "maxits": "3"}, paperSystem(20), FailMaxIterations},
		{"mg/cycles=1", "mg", map[string]string{"grid_n": "15", "cycles": "1"}, paperSystem(15), FailMaxIterations},
		// Equilibration would stop first, at the zero column scale.
		{"superlu/empty-column", "superlu", map[string]string{"equilibrate": "false"}, emptyColumnSystem, FailSingular},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				a, b := tc.sys(t)
				run(t, p, func(c *comm.Comm) {
					s, l := openOn(t, c, tc.backend, SessionOptions{Params: tc.params}, a, b)
					defer s.Close()
					x := make([]float64, l.LocalN)
					first, err := s.Solve(context.Background(), x)
					if err == nil || first.FailReason != tc.want || first.Aborted || first.Attempts != 1 {
						t.Errorf("first solve: fail=%v aborted=%v attempts=%d err=%v, want one run ending in %v",
							first.FailReason, first.Aborted, first.Attempts, err, tc.want)
						return
					}
					firstX := append([]float64(nil), x...)
					second, err := s.Solve(context.Background(), x)
					if err == nil || second.FailReason != first.FailReason || second.Iterations != first.Iterations ||
						math.Float64bits(second.Residual) != math.Float64bits(first.Residual) || second.Attempts != 1 {
						t.Errorf("second solve: %+v (err %v), want a repeat of %+v", second, err, first)
					}
					for i := range x {
						if math.Float64bits(x[i]) != math.Float64bits(firstX[i]) {
							t.Errorf("second solve: x[%d] = %v, want %v (bitwise)", i, x[i], firstX[i])
							break
						}
					}
					if err := s.usable(); err != nil {
						t.Errorf("session after two typed failures: %v", err)
					}
				})
			})
		}
	}
}

// TestSessionKeepsMatrixOnlyForFailover: the session holds on to the
// caller's matrix block only when a failover chain may re-stage it; the
// backend has its own copy.
func TestSessionKeepsMatrixOnlyForFailover(t *testing.T) {
	a, b := paperSystem(9)(t)
	for _, chain := range [][]string{nil, {"superlu"}} {
		run(t, 1, func(c *comm.Comm) {
			s, _ := openOn(t, c, "petsc", SessionOptions{Params: iterativeParams, Failover: chain}, a, b)
			defer s.Close()
			if kept := s.localA != nil; kept != (len(chain) > 0) {
				t.Errorf("failover chain %v: session keeps the matrix = %t", chain, kept)
			}
		})
	}
}

// identityOp is the matrix-free identity on any rank's block.
type identityOp struct{}

func (identityOp) MatMult(_ ID, x, y []float64, length int) int {
	copy(y[:length], x[:length])
	return OK
}

// TestSetupReplacesMatrixFreeOperator: Setup after SetupOperator stages
// the assembled matrix in place of the matrix-free operator, so the next
// Solve answers for that matrix, ‖A·x − b‖₂ ≤ tol·‖b‖₂. A MatrixFree
// port left set solves the identity instead and still reports converged.
// Unpreconditioned, the residual the backends stop on is this one.
func TestSetupReplacesMatrixFreeOperator(t *testing.T) {
	a, b := paperSystem(9)(t)
	const tol = 1e-10
	params := map[string]string{"solver": "gmres", "preconditioner": "none", "tol": "1e-10"}
	for _, backend := range []string{"petsc", "trilinos"} {
		for _, ranks := range []int{1, 2} {
			run(t, ranks, func(c *comm.Comm) {
				l, err := pmat.EvenLayout(c, a.Rows)
				if err != nil {
					t.Fatal(err)
				}
				s, err := OpenSession(backend, c, SessionOptions{Params: params})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if err := s.SetupOperator(l, identityOp{}); err != nil {
					t.Fatal(err)
				}
				if err := s.Setup(l, a.SubMatrix(l.Start, l.Start+l.LocalN)); err != nil {
					t.Fatal(err)
				}
				if err := s.SetupRHS(b[l.Start:l.Start+l.LocalN], 1); err != nil {
					t.Fatal(err)
				}
				x := make([]float64, l.LocalN)
				if res, err := s.Solve(context.Background(), x); err != nil || !res.Converged {
					t.Fatalf("%s p=%d: converged=%v err=%v", backend, ranks, res.Converged, err)
				}
				r := make([]float64, a.Rows)
				a.MulVec(r, pmat.AllGather(l, x))
				for i := range r {
					r[i] -= b[i]
				}
				if got, want := sparse.Norm2(r), tol*sparse.Norm2(b); !(got <= want) {
					t.Errorf("%s p=%d: ‖A·x − b‖₂ = %.3e on the staged matrix, want ≤ %.3e", backend, ranks, got, want)
				}
				// With no port left to clear, a same-pattern refresh keeps
				// the configured solver.
				cfgVer := func() int {
					switch v := s.Solver().(type) {
					case *KSPComponent:
						return v.cfgVer
					case *AztecComponent:
						return v.cfgVer
					}
					return -1
				}
				before := cfgVer()
				if err := s.Setup(l, a.SubMatrix(l.Start, l.Start+l.LocalN)); err != nil {
					t.Fatal(err)
				}
				if after := cfgVer(); after != before {
					t.Errorf("%s p=%d: a refresh moved cfgVer %d → %d", backend, ranks, before, after)
				}
			})
		}
	}
}
