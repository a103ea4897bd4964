package core

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// scaledValues returns a with the same pattern and every row scaled by
// its own factor — new values a refresh must refactor for.
func scaledValues(a *sparse.CSR, round int) *sparse.CSR {
	b := a.Clone()
	for i := 0; i < b.Rows; i++ {
		s := 1 + 0.01*float64((i*7+round*13)%11)
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			b.Vals[k] *= s
		}
	}
	return b
}

// smallDiagonals returns a with the same pattern and every fifth
// diagonal entry shrunk below any pivot threshold — values whose row
// permutation differs from a's.
func smallDiagonals(a *sparse.CSR) *sparse.CSR {
	b := a.Clone()
	for i := 0; i < b.Rows; i += 5 {
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			if b.ColInd[k] == i {
				b.Vals[k] *= 1e-3
			}
		}
	}
	return b
}

// sluCounts reads factorizations / analyses / symbolic_reuses out of a
// superlu component's GetAll (collective: GetAll broadcasts fill_ratio).
func sluCounts(t *testing.T, solver SparseSolver) (factorizations, analyses, reuses int) {
	t.Helper()
	all := solver.GetAll()
	return sluCount(t, all, "factorizations"), sluCount(t, all, "analyses"), sluCount(t, all, "symbolic_reuses")
}

// sluCount reads one integer key out of a GetAll listing.
func sluCount(t *testing.T, all, key string) int {
	t.Helper()
	for _, line := range strings.Split(all, "\n") {
		if rest, ok := strings.CutPrefix(line, key+"="); ok {
			v, err := strconv.Atoi(rest)
			if err != nil {
				t.Fatalf("GetAll line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("GetAll lacks %q:\n%s", key, all)
	return 0
}

// sluReplays reads static_refactors / rowperm_fallbacks the same way.
func sluReplays(t *testing.T, solver SparseSolver) (static, fallbacks int) {
	t.Helper()
	all := solver.GetAll()
	return sluCount(t, all, "static_refactors"), sluCount(t, all, "rowperm_fallbacks")
}

func bitsOf(x []float64) []uint64 {
	out := make([]uint64, len(x))
	for i, v := range x {
		out[i] = math.Float64bits(v)
	}
	return out
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	g, w := bitsOf(got), bitsOf(want)
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: x[%d] = %v, want %v (bitwise)", what, i, got[i], want[i])
		}
	}
}

// stagedSLU returns a superlu component with a (global, one-rank) and b
// staged and params applied.
func stagedSLU(t *testing.T, c *comm.Comm, a *sparse.CSR, b []float64, params map[string]string) *SLUComponent {
	t.Helper()
	s := NewSLUComponent()
	mustOK(t, s.Initialize(c), "init")
	for k, v := range params {
		mustOK(t, s.Set(k, v), "set "+k)
	}
	mustOK(t, s.SetStartRow(0), "start")
	mustOK(t, s.SetLocalRows(a.Rows), "rows")
	mustOK(t, s.SetGlobalCols(a.Rows), "cols")
	mustOK(t, s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, len(a.RowPtr), a.NNZ()), "matrix")
	mustOK(t, s.SetupRHS(b, a.Rows, 1), "rhs")
	return s
}

// TestSLUFactorParametersTakeEffect: ordering, pivot_threshold and
// equilibrate set after a factorisation must change the factor in use at
// the next Solve — re-analysing only for ordering — while the keys that
// do not enter slu.Options must not refactor.
func TestSLUFactorParametersTakeEffect(t *testing.T) {
	a := sparse.RandomUnsymmetric(60, 5, 12)
	b := sparse.RandomVector(60, 3)
	run(t, 1, func(c *comm.Comm) {
		s := stagedSLU(t, c, a, b, nil)
		x := make([]float64, a.Rows)
		status := make([]float64, StatusLen)
		solve := func() {
			t.Helper()
			mustOK(t, s.Solve(x, status, a.Rows, StatusLen), "solve")
		}
		expect := func(what string, f, an, re int) {
			t.Helper()
			gf, ga, gr := sluCounts(t, s)
			if int(status[StatusFactorizations]) != f || gf != f || ga != an || gr != re {
				t.Fatalf("%s: factorizations %v/%d analyses %d reuses %d, want %d, %d, %d",
					what, status[StatusFactorizations], gf, ga, gr, f, an, re)
			}
		}
		solve()
		expect("first solve", 1, 1, 0)

		for _, kv := range [][2]string{
			{"refine_steps", "1"}, {"workers", "2"},
			{"tol", "1e-9"}, {"maxits", "7"}, {"solver", "gmres"},
			// Spelled differently, same slu.Options value.
			{"ordering", "amd"}, {"pivot_threshold", "1.0"}, {"equilibrate", "1"},
		} {
			mustOK(t, s.Set(kv[0], kv[1]), "set "+kv[0])
			solve()
			expect(kv[0]+" must not refactor", 1, 1, 0)
		}

		f, an, re := 1, 1, 0
		for _, step := range []struct {
			key, value string
			analyses   bool
		}{
			{"ordering", "rcm", true},
			{"pivot_threshold", "0.05", false},
			{"equilibrate", "false", false},
			{"ordering", "natural", true},
		} {
			mustOK(t, s.Set(step.key, step.value), "set "+step.key)
			solve()
			f++
			if step.analyses {
				an++
			} else {
				re++
			}
			expect(step.key+"="+step.value, f, an, re)

			// The factor in use is the one a component configured this way
			// from the start builds.
			params := map[string]string{"refine_steps": "1"}
			for _, k := range []string{"ordering", "pivot_threshold", "equilibrate"} {
				if v, ok := s.params[k]; ok {
					params[k] = v
				}
			}
			fresh := stagedSLU(t, c, a, b, params)
			y := make([]float64, a.Rows)
			mustOK(t, fresh.Solve(y, make([]float64, StatusLen), a.Rows, StatusLen), "fresh solve")
			requireSameBits(t, step.key+"="+step.value, x, y)
		}
	})
}

// TestSLUFailedRefreshRecovers: a refresh the direct solver cannot
// factor — here a replay of the live factor that meets a zero pivot —
// ends in the typed failure a cold factorisation of that matrix ends in,
// is not counted as a factorisation, and the next good refresh refactors
// on the stored analysis and matches a fresh component bit for bit.
func TestSLUFailedRefreshRecovers(t *testing.T) {
	a := sparse.RandomDiagDominant(30, 4, 6)
	b := sparse.RandomVector(30, 2)
	singular := a.Clone()
	for k, j := range singular.ColInd {
		if j == 11 {
			singular.Vals[k] = 0
		}
	}
	// Without equilibration the zero column reaches the replay's pivot
	// search, the path this test follows; with it the zero-column check
	// stops first, typed singular as well.
	params := map[string]string{"equilibrate": "false"}
	run(t, 1, func(c *comm.Comm) {
		s := stagedSLU(t, c, a, b, params)
		x := make([]float64, a.Rows)
		status := make([]float64, StatusLen)
		mustOK(t, s.Solve(x, status, a.Rows, StatusLen), "solve")

		mustOK(t, s.SetupMatrix(singular.Vals, singular.RowPtr, singular.ColInd, CSR, len(a.RowPtr), a.NNZ()), "singular matrix")
		for attempt := 0; attempt < 2; attempt++ {
			if code := s.Solve(x, status, a.Rows, StatusLen); code != ErrSolveFailed {
				t.Fatalf("singular refresh returned %d, want ErrSolveFailed", code)
			}
			if r := FailReason(status[StatusFailReason]); r != FailSingular {
				t.Fatalf("singular refresh typed %v, want singular", r)
			}
		}
		if f, _, _ := sluCounts(t, s); f != 1 {
			t.Fatalf("failed refreshes counted: factorizations = %d, want 1", f)
		}
		// The first attempt replayed the live factor until the zero pivot
		// failed its validation; the second found no factor to replay.
		if static, fallbacks := sluReplays(t, s); static != 0 || fallbacks != 1 {
			t.Fatalf("failed refreshes: %d replayed, %d fell back, want 0 and 1", static, fallbacks)
		}

		good := scaledValues(a, 1)
		mustOK(t, s.SetupMatrix(good.Vals, good.RowPtr, good.ColInd, CSR, len(a.RowPtr), a.NNZ()), "good matrix")
		mustOK(t, s.Solve(x, status, a.Rows, StatusLen), "solve after failure")
		if f, an, re := sluCounts(t, s); f != 2 || an != 1 || re != 3 {
			t.Fatalf("after recovery: factorizations %d analyses %d reuses %d, want 2, 1, 3", f, an, re)
		}
		fresh := stagedSLU(t, c, good, b, params)
		y := make([]float64, a.Rows)
		mustOK(t, fresh.Solve(y, make([]float64, StatusLen), a.Rows, StatusLen), "fresh solve")
		requireSameBits(t, "after failed refresh", x, y)

		// The recovery refilled the withdrawn storage from scratch; the
		// refresh after it replays that factor.
		good = scaledValues(a, 2)
		mustOK(t, s.SetupMatrix(good.Vals, good.RowPtr, good.ColInd, CSR, len(a.RowPtr), a.NNZ()), "next matrix")
		mustOK(t, s.Solve(x, status, a.Rows, StatusLen), "solve after recovery")
		if static, fallbacks := sluReplays(t, s); static != 1 || fallbacks != 1 {
			t.Fatalf("after recovery: %d replayed, %d fell back, want 1 and 1", static, fallbacks)
		}
		fresh = stagedSLU(t, c, good, b, params)
		mustOK(t, fresh.Solve(y, make([]float64, StatusLen), a.Rows, StatusLen), "fresh solve")
		requireSameBits(t, "replay after recovery", x, y)
	})
}

// TestSessionRefreshSamePatternBitwise: refreshing a live session with
// new values on the same pattern (the numeric-only path) must give the
// bits a fresh session gives for those values, for every rank and worker
// count, and count one factorisation and one symbolic reuse per refresh.
// Three rounds keep the pivots and replay the factor's structure; then the
// pivots move, and move back with the original values — two fallbacks.
func TestSessionRefreshSamePatternBitwise(t *testing.T) {
	a0, rhs, err := mesh.PaperProblem(14).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2} {
		for _, workers := range []int{1, 2} {
			run(t, ranks, func(c *comm.Comm) {
				l, err := pmat.EvenLayout(c, a0.Rows)
				if err != nil {
					t.Fatal(err)
				}
				local := func(a *sparse.CSR) *sparse.CSR { return a.SubMatrix(l.Start, l.Start+l.LocalN) }
				b := rhs[l.Start : l.Start+l.LocalN]
				open := func(a *sparse.CSR) *Session {
					s, err := OpenSession("superlu", c, SessionOptions{
						Workers: workers, Params: map[string]string{"refine_steps": "1"}})
					if err != nil {
						t.Fatal(err)
					}
					if err := s.Setup(l, local(a)); err != nil {
						t.Fatal(err)
					}
					if err := s.SetupRHS(b, 1); err != nil {
						t.Fatal(err)
					}
					return s
				}
				live := open(a0)
				defer live.Close()
				x := make([]float64, l.LocalN)
				if _, err := live.Solve(context.Background(), x); err != nil {
					t.Fatal(err)
				}
				rounds := []*sparse.CSR{
					scaledValues(a0, 1), scaledValues(a0, 2), scaledValues(a0, 3), smallDiagonals(a0), a0}
				for i, a := range rounds {
					round := i + 1
					if err := live.Setup(l, local(a)); err != nil {
						t.Fatal(err)
					}
					if err := live.SetupRHS(b, 1); err != nil {
						t.Fatal(err)
					}
					res, err := live.Solve(context.Background(), x)
					if err != nil {
						t.Fatal(err)
					}
					if res.Factorizations != 1+round {
						t.Fatalf("ranks=%d workers=%d round %d: %d factorizations, want %d",
							ranks, workers, round, res.Factorizations, 1+round)
					}
					fresh := open(a)
					y := make([]float64, l.LocalN)
					_, err = fresh.Solve(context.Background(), y)
					fresh.Close()
					if err != nil {
						t.Fatal(err)
					}
					requireSameBits(t, "refresh vs fresh session", x, y)
				}
				_, analyses, reuses := sluCounts(t, live.Solver())
				static, fallbacks := sluReplays(t, live.Solver())
				if c.Rank() == 0 && (analyses != 1 || reuses != 5 || static != 3 || fallbacks != 2) {
					t.Errorf("ranks=%d workers=%d: %d analyses / %d reuses (%d replayed, %d fell back) on the root, want 1 / 5 (3, 2)",
						ranks, workers, analyses, reuses, static, fallbacks)
				}
				if c.Rank() != 0 && (analyses != 0 || reuses != 0 || static != 0 || fallbacks != 0) {
					t.Errorf("rank %d reports set-up decisions it did not take: %d / %d (%d, %d)",
						c.Rank(), analyses, reuses, static, fallbacks)
				}
			})
		}
	}
}

// TestSessionWarmSolveAllocFreeAfterRefresh: the refactor refills the
// factor's storage and keeps the solve scratch, so the warm path after a
// refresh is as allocation-free as before it.
func TestSessionWarmSolveAllocFreeAfterRefresh(t *testing.T) {
	a0, rhs, err := mesh.PaperProblem(12).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	run(t, 1, func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, a0.Rows)
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenSession("superlu", c, SessionOptions{Params: map[string]string{"refine_steps": "1"}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		x := make([]float64, l.LocalN)
		solve := func() {
			if _, err := s.Solve(context.Background(), x); err != nil {
				t.Error(err)
			}
		}
		for round := 0; round < 2; round++ {
			if err := s.Setup(l, scaledValues(a0, round)); err != nil {
				t.Fatal(err)
			}
			if err := s.SetupRHS(rhs, 1); err != nil {
				t.Fatal(err)
			}
			solve()
		}
		solve()
		runtime.GC()
		bound := 0.0
		if raceEnabled {
			bound = steadyStateAllocBound
		}
		if avg := testing.AllocsPerRun(5, solve); avg > bound {
			t.Errorf("warm Solve after a refresh allocates %.1f allocs/op, want ≤ %g", avg, bound)
		}
	})
}

// TestSessionFailoverAfterFailedRefresh: a refresh superlu cannot factor
// leaves its component without a factor; the session must still walk its
// failover chain, re-stage the system into the replacement, and serve the
// next good system from there.
func TestSessionFailoverAfterFailedRefresh(t *testing.T) {
	a := sparse.RandomDiagDominant(40, 4, 15)
	singular := a.Clone()
	for k, j := range singular.ColInd {
		if j == 5 {
			singular.Vals[k] = 0
		}
	}
	xstar := sparse.RandomVector(a.Rows, 8)
	run(t, 2, func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, a.Rows)
		if err != nil {
			t.Fatal(err)
		}
		stage := func(s *Session, m *sparse.CSR) []float64 {
			t.Helper()
			b := make([]float64, m.Rows)
			m.MulVec(b, xstar)
			if err := s.Setup(l, m.SubMatrix(l.Start, l.Start+l.LocalN)); err != nil {
				t.Fatal(err)
			}
			if err := s.SetupRHS(b[l.Start:l.Start+l.LocalN], 1); err != nil {
				t.Fatal(err)
			}
			return b
		}
		s, err := OpenSession("superlu", c, SessionOptions{
			Failover: []string{"petsc"},
			Params: map[string]string{
				"solver": "gmres", "preconditioner": "none", "tol": "1e-10", "maxits": "200", "restart": "60"},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		x := make([]float64, l.LocalN)
		stage(s, a)
		if res, err := s.Solve(context.Background(), x); err != nil || res.Backend != "superlu" {
			t.Fatalf("first solve: backend %q, err %v", res.Backend, err)
		}

		stage(s, singular)
		res, _ := s.Solve(context.Background(), x) // petsc may or may not cope with the singular system
		if res.Aborted || s.Failovers() != 1 || s.Backend().Name != "petsc" {
			t.Fatalf("failed refresh: aborted=%v failovers=%d backend=%q, want a clean failover to petsc",
				res.Aborted, s.Failovers(), s.Backend().Name)
		}

		stage(s, scaledValues(a, 2))
		res, err = s.Solve(context.Background(), x)
		if err != nil || !res.Converged {
			t.Fatalf("good system after the failover: %+v, %v", res, err)
		}
		for i := range x {
			if math.Abs(x[i]-xstar[l.Start+i]) > 1e-6 {
				t.Fatalf("x[%d] = %v, want %v", i, x[i], xstar[l.Start+i])
			}
		}
	})
}

// TestSLUSetupTelemetry: the recorder sees every set-up decision and the
// ordering/numeric split of the time it files under PhaseSetup.
func TestSLUSetupTelemetry(t *testing.T) {
	a0, rhs, err := mesh.PaperProblem(20).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	run(t, 1, func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, a0.Rows)
		if err != nil {
			t.Fatal(err)
		}
		rec := telemetry.New()
		s, err := OpenSession("superlu", c, SessionOptions{Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		x := make([]float64, l.LocalN)
		for round := 0; round < 3; round++ {
			if err := s.Setup(l, scaledValues(a0, round)); err != nil {
				t.Fatal(err)
			}
			if err := s.SetupRHS(rhs, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Solve(context.Background(), x); err != nil {
				t.Fatal(err)
			}
		}
		if an, re := rec.Counter("slu.analyses"), rec.Counter("slu.symbolic_reuses"); an != 1 || re != 2 {
			t.Errorf("slu.analyses = %d, slu.symbolic_reuses = %d, want 1 and 2", an, re)
		}
		if st, fb := rec.Counter("slu.static_refactors"), rec.Counter("slu.rowperm_fallbacks"); st != 2 || fb != 0 {
			t.Errorf("slu.static_refactors = %d, slu.rowperm_fallbacks = %d, want 2 and 0", st, fb)
		}
		ord, num := rec.Counter("slu.ordering_ns"), rec.Counter("slu.numeric_ns")
		setup := int64(rec.PhaseSeconds(telemetry.PhaseSetup) * 1e9)
		if ord <= 0 || num <= 0 || ord+num > setup {
			t.Errorf("ordering %d ns + numeric %d ns must be positive and inside PhaseSetup's %d ns", ord, num, setup)
		}
	})
}

// TestPooledSuperLUSolveDispatchesNothing: superlu's triangular solves
// are serial at every worker count, so a warm Session.Solve at workers=2
// adds nothing to par.dispatches. A level-scheduled solve would add one
// per level.
func TestPooledSuperLUSolveDispatchesNothing(t *testing.T) {
	a, b := paperSystem(32)(t)
	run(t, 1, func(c *comm.Comm) {
		rec := telemetry.New()
		s, l := openOn(t, c, "superlu", SessionOptions{Recorder: rec, Workers: 2}, a, b)
		defer s.Close()
		x := make([]float64, l.LocalN)
		if _, err := s.Solve(context.Background(), x); err != nil {
			t.Fatal(err)
		}
		before := rec.Counter("par.dispatches")
		if _, err := s.Solve(context.Background(), x); err != nil {
			t.Fatal(err)
		}
		if d := rec.Counter("par.dispatches") - before; d != 0 {
			t.Errorf("a warm superlu solve at workers=2 made %d pool dispatches, want 0", d)
		}
	})
}
