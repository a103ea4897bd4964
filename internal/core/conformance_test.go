package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

// confOperator is one manufactured-solution system of the conformance
// table: b = A·x* for a known x*, so a converged row can be judged by its
// forward error and not only by the residual the backend reports.
type confOperator struct {
	name string
	spd  bool
	sys  testSystem
}

var (
	stencil16     = confOperator{"stencil-16", false, paperSystem(16)}
	lap49         = confOperator{"lap49_sym", true, mmSystem("../../testdata/corpus/lap49_sym.mtx")}
	confOperators = []confOperator{stencil16, lap49}
)

// spdOnly names the solver values that assume a symmetric positive
// definite operator; they get rows on the SPD operator alone.
var spdOnly = map[string]bool{"cg": true, "chebyshev": true}

// confRow is one (backend, parameters, operator) cell.
type confRow struct {
	name    string
	backend string
	params  map[string]string
	workers int
	op      confOperator
}

// confForwardBound bounds ‖x − x*‖∞/‖x*‖∞ of a converged row: every row
// asks for tol 1e-10 and every operator's condition number is under 1e3
// (the largest error today is 5.7e-9, on stencil-48).
const confForwardBound = 1e-7

// declaredNames returns the names an enum key of ps accepts, sorted.
func declaredNames(ps []Param, key string) []string {
	p, _ := validate(ps, key, "")
	names := append([]string(nil), p.Names...)
	sort.Strings(names)
	return names
}

// confRows ranges over the components' declared enum names, so a newly accepted
// solver or preconditioner value gets its rows without an edit here. No
// accepted value fails on both operators today; one that does is to be
// pinned to its typed FailReason here, not skipped.
func confRows() []confRow {
	var rows []confRow
	add := func(backend, label string, op confOperator, workers int, params map[string]string) {
		p := map[string]string{"tol": "1e-10"}
		for k, v := range params {
			p[k] = v
		}
		rows = append(rows, confRow{backend + "/" + label + "/" + op.name, backend, p, workers, op})
	}
	for _, op := range confOperators {
		for _, be := range []struct {
			backend      string
			solvers, pcs []string
		}{
			{"petsc", declaredNames(kspParams, "solver"), declaredNames(kspParams, "preconditioner")},
			{"trilinos", declaredNames(aztecParams, "solver"), declaredNames(aztecParams, "preconditioner")},
		} {
			for _, v := range be.solvers {
				if spdOnly[v] && !op.spd {
					continue
				}
				add(be.backend, "solver="+v, op, 0, map[string]string{"solver": v})
			}
			for _, v := range be.pcs {
				add(be.backend, "preconditioner="+v, op, 0, map[string]string{"preconditioner": v})
			}
		}
		add("petsc", "richardson+damping", op, 0, map[string]string{"solver": "richardson", "damping": "0.8"})
		// The preconditioner must see the scaled rows: ILUT reads them
		// row by row, a polynomial through the product and the diagonal.
		add("trilinos", "scaling=rowsum", op, 0, map[string]string{"scaling": "rowsum"})
		add("trilinos", "scaling=rowsum+neumann", op, 0, map[string]string{"scaling": "rowsum", "preconditioner": "neumann"})
	}
	// mg forms its coarse operators as R·A·P, the only caller of
	// sparse.Multiply/TripleProduct.
	add("mg", "defaults", confOperator{"stencil-15", false, paperSystem(15)}, 0, nil)
	// 48² = 2304 rows is past par's 2048-element reduction block, so a
	// pooled dot or norm folds more than one slot.
	add("petsc", "workers=2", confOperator{"stencil-48", false, paperSystem(48)}, 2,
		map[string]string{"solver": "bicgstab"})
	return rows
}

// manufactured returns x* and b = A·x*.
func manufactured(a *sparse.CSR) (xstar, b []float64) {
	xstar = make([]float64, a.Rows)
	for i := range xstar {
		xstar[i] = 1 + float64(i%7)/7
	}
	b = make([]float64, a.Rows)
	a.MulVec(b, xstar)
	return xstar, b
}

// openOn opens a session on this rank's block rows of a and stages b.
func openOn(t *testing.T, c *comm.Comm, backend string, opts SessionOptions, a *sparse.CSR, b []float64) (*Session, *pmat.Layout) {
	t.Helper()
	l, err := pmat.EvenLayout(c, a.Rows)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSession(backend, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Setup(l, a.SubMatrix(l.Start, l.Start+l.LocalN)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupRHS(b[l.Start:l.Start+l.LocalN], 1); err != nil {
		t.Fatal(err)
	}
	return s, l
}

// checkConverged asserts a row's outcome: converged, with the forward
// error ‖x − x*‖∞/‖x*‖∞ under the bound beside a finite reported residual.
func checkConverged(t *testing.T, label string, l *pmat.Layout, res SolveResult, err error, x, xstar []float64) {
	t.Helper()
	p := l.Comm().Size()
	if err != nil || !res.Converged || res.FailReason != FailNone {
		t.Errorf("%s p=%d: converged=%v fail=%v its=%d err=%v, want convergence", label, p, res.Converged, res.FailReason, res.Iterations, err)
		return
	}
	ferr := 0.0
	for i, v := range pmat.AllGather(l, x) {
		ferr = math.Max(ferr, math.Abs(v-xstar[i]))
	}
	ferr /= sparse.NormInf(xstar)
	if !(ferr <= confForwardBound) || math.IsNaN(res.Residual) || math.IsInf(res.Residual, 0) {
		t.Errorf("%s p=%d: forward error %.3e (bound %.0e), reported residual %.3e, %d iterations",
			label, p, ferr, confForwardBound, res.Residual, res.Iterations)
	}
}

// TestDoorConformance is the one table for what a door reaches: every
// solver and preconditioner value the petsc and trilinos components
// accept, the damping and row-scaling switches, multigrid, and a pooled
// reduction long enough to fan out, each solved through core.Session on a
// manufactured-solution system on 1 and 2 ranks.
func TestDoorConformance(t *testing.T) {
	for _, row := range confRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			a, _ := row.op.sys(t)
			xstar, b := manufactured(a)
			for _, ranks := range []int{1, 2} {
				run(t, ranks, func(c *comm.Comm) {
					s, l := openOn(t, c, row.backend, SessionOptions{Params: row.params, Workers: row.workers}, a, b)
					defer s.Close()
					x := make([]float64, l.LocalN)
					res, err := s.Solve(context.Background(), x)
					checkConverged(t, row.name, l, res, err, x, xstar)
					if all := s.Solver().GetAll(); row.backend == "mg" && !strings.Contains(all, "levels=3") {
						t.Errorf("GetAll does not report the 15→7→3 hierarchy:\n%s", all)
					}
				})
			}
		})
	}

	// Row scaling needs row access: on a matrix-free operator it is a
	// typed failure, not a panic or a silently unscaled solve.
	t.Run("trilinos/scaling=rowsum/matrix-free", func(t *testing.T) {
		a, _ := lap49.sys(t)
		_, b := manufactured(a)
		run(t, 1, func(c *comm.Comm) {
			l, err := pmat.EvenLayout(c, a.Rows)
			if err != nil {
				t.Fatal(err)
			}
			s, err := OpenSession("trilinos", c, SessionOptions{Params: map[string]string{"scaling": "rowsum", "solver": "cg"}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.SetupOperator(l, &appOperator{a: a}); err != nil {
				t.Fatal(err)
			}
			if err := s.SetupRHS(b, 1); err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve(context.Background(), make([]float64, l.LocalN))
			if err == nil || res.Converged || res.FailReason != FailBreakdown {
				t.Errorf("converged=%v fail=%v err=%v, want a typed failure", res.Converged, res.FailReason, err)
			}
		})
	})

	// A zero diagonal is a property of the matrix, not of the method:
	// every preconditioner that divides by the diagonal reports it as
	// singular, whichever backend hosts it. Every row of swap2 has a
	// zero diagonal, so every rank meets it in its own block.
	singular := func(t *testing.T, backend string, params map[string]string, a *sparse.CSR) {
		_, b := manufactured(a)
		for _, ranks := range []int{1, 2} {
			run(t, ranks, func(c *comm.Comm) {
				s, l := openOn(t, c, backend, SessionOptions{Params: params}, a, b)
				defer s.Close()
				res, err := s.Solve(context.Background(), make([]float64, l.LocalN))
				if err == nil || res.Converged || res.FailReason != FailSingular {
					t.Errorf("p=%d: converged=%v fail=%v err=%v, want singular", ranks, res.Converged, res.FailReason, err)
				}
			})
		}
	}
	for _, row := range []struct{ backend, pc string }{
		{"petsc", "jacobi"}, {"petsc", "sor"}, {"trilinos", "jacobi"}, {"trilinos", "symgs"},
	} {
		t.Run(row.backend+"/preconditioner="+row.pc+"/zero-diagonal", func(t *testing.T) {
			singular(t, row.backend, map[string]string{"preconditioner": row.pc}, zeroDiagonalSystem())
		})
	}

	// A set-up failure on one rank is every rank's. The matrices below
	// are paper grid 7 with one bad row or column k, the first of rank
	// 0's block and then the first of the last rank's (the first, so
	// that no elimination fills a zero pivot in before an incomplete
	// factorization reaches it): the rank that meets it fails its set-up
	// and the others do not, yet every rank reports the same reason from
	// one run, and the session solves the grid after it.
	paper7, _ := paperSystem(7)(t)
	oneRank := func(t *testing.T, backend string, params map[string]string, spoil spoiler) {
		p := map[string]string{"tol": "1e-10"}
		maps.Copy(p, params)
		xstar, b := manufactured(paper7)
		for _, ranks := range []int{2, 3} {
			for _, k := range []int{0, paper7.Rows - paper7.Rows/ranks} {
				bad := spoil(paper7, k)
				_, badB := manufactured(bad)
				run(t, ranks, func(c *comm.Comm) {
					s, l := openOn(t, c, backend, SessionOptions{Params: p}, bad, badB)
					defer s.Close()
					res, err := s.Solve(context.Background(), make([]float64, l.LocalN))
					if err == nil || res.Converged || res.FailReason != FailSingular || res.Attempts != 1 {
						t.Errorf("p=%d, bad row %d, rank %d: converged=%v fail=%v attempts=%d err=%v, want one run ending singular",
							ranks, k, c.Rank(), res.Converged, res.FailReason, res.Attempts, err)
					}
					if err := s.usable(); err != nil {
						t.Fatalf("p=%d, bad row %d, rank %d: session after a typed failure: %v", ranks, k, c.Rank(), err)
					}
					if err := s.Setup(l, paper7.SubMatrix(l.Start, l.Start+l.LocalN)); err != nil {
						t.Fatal(err)
					}
					if err := s.SetupRHS(b[l.Start:l.Start+l.LocalN], 1); err != nil {
						t.Fatal(err)
					}
					x := make([]float64, l.LocalN)
					res, err = s.Solve(context.Background(), x)
					checkConverged(t, fmt.Sprintf("bad row %d, then the grid", k), l, res, err, x, xstar)
				})
			}
		}
	}
	for _, row := range []struct {
		name, backend string
		params        map[string]string
		spoil         spoiler
	}{
		{"mg/zero-diagonal", "mg", nil, zeroDiagonal},
		{"trilinos/scaling=rowsum/zero-row", "trilinos", map[string]string{"scaling": "rowsum"}, zeroRow},
		{"superlu/empty-column", "superlu", nil, emptyColumn},
		{"superlu/zero-row", "superlu", nil, zeroRow},
	} {
		t.Run(row.name, func(t *testing.T) { oneRank(t, row.backend, row.params, row.spoil) })
	}
	for _, be := range []struct {
		backend string
		pcs     []string
	}{
		{"petsc", []string{"jacobi", "bjacobi", "ilu", "sor", "ssor"}},
		{"trilinos", []string{"jacobi", "neumann", "ls", "symgs", "domdecomp", "ilut", "ilu"}},
	} {
		for _, pc := range be.pcs {
			for _, d := range []struct {
				name  string
				spoil spoiler
			}{{"zero-diagonal", zeroDiagonal}, {"missing-diagonal", missingDiagonal}} {
				t.Run(be.backend+"/preconditioner="+pc+"/one-rank-"+d.name, func(t *testing.T) {
					oneRank(t, be.backend, map[string]string{"preconditioner": pc}, d.spoil)
				})
			}
		}
	}
}

// TestSessionFailoverAgreesAcrossRanks: Session.Solve's failover walk is
// SPMD because every rank reads the same FailReason. A preconditioner
// set-up that fails on rank 0 alone must give rank 1 that reason too, so
// that both ranks walk to the same replacement and solve there.
func TestSessionFailoverAgreesAcrossRanks(t *testing.T) {
	paper7, _ := paperSystem(7)(t)
	a := zeroDiagonal(paper7, 0)
	xstar, b := manufactured(a)
	opts := SessionOptions{Params: map[string]string{"preconditioner": "jacobi"}, Failover: []string{"superlu"}}
	run(t, 2, func(c *comm.Comm) {
		s, l := openOn(t, c, "petsc", opts, a, b)
		defer s.Close()
		x := make([]float64, l.LocalN)
		res, err := s.Solve(context.Background(), x)
		if res.Backend != "superlu" || res.Attempts != 2 {
			t.Errorf("rank %d: backend %q after %d attempts, want superlu after 2", c.Rank(), res.Backend, res.Attempts)
		}
		checkConverged(t, "petsc jacobi, failed over", l, res, err, x, xstar)
	})
}

// A spoiler returns a copy of a whose row or column k fails a set-up.
type spoiler func(a *sparse.CSR, k int) *sparse.CSR

// spoilEntries returns the spoiler that zeroes, or with drop removes,
// every entry (i, j) hit selects.
func spoilEntries(hit func(i, j, k int) bool, drop bool) spoiler {
	return func(a *sparse.CSR, k int) *sparse.CSR {
		coo := sparse.NewCOO(a.Rows, a.Cols)
		for i := 0; i < a.Rows; i++ {
			cols, vals := a.RowView(i)
			for q, j := range cols {
				switch {
				case !hit(i, j, k):
					coo.Append(i, j, vals[q])
				case !drop:
					coo.Append(i, j, 0)
				}
			}
		}
		return coo.ToCSR()
	}
}

func onDiagonal(i, j, k int) bool { return i == k && j == k }

var (
	zeroDiagonal    = spoilEntries(onDiagonal, false)
	missingDiagonal = spoilEntries(onDiagonal, true)
	zeroRow         = spoilEntries(func(i, _, k int) bool { return i == k }, false)
	emptyColumn     = spoilEntries(func(_, j, k int) bool { return j == k }, true)
)

// zeroDiagonalSystem is two 2×2 swaps [0 1; 1 0] on the diagonal:
// nonsingular, and no row has a diagonal entry.
func zeroDiagonalSystem() *sparse.CSR {
	coo := sparse.NewCOO(4, 4)
	for _, p := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}} {
		coo.Append(p[0], p[1], 1)
	}
	return coo.ToCSR()
}

// TestKSPReasonResetBeforePCSetUp: a preconditioner set-up failure is
// classified by its own error, not by the reason the previous solve
// left behind.
func TestKSPReasonResetBeforePCSetUp(t *testing.T) {
	a, _ := lap49.sys(t)
	_, b := manufactured(a)
	swap2 := zeroDiagonalSystem()
	_, b2 := manufactured(swap2)
	params := map[string]string{"solver": "gmres", "preconditioner": "jacobi", "maxits": "1"}
	run(t, 1, func(c *comm.Comm) {
		s, _ := openOn(t, c, "petsc", SessionOptions{Params: params}, a, b)
		defer s.Close()
		res, _ := s.Solve(context.Background(), make([]float64, a.Rows))
		if res.FailReason != FailMaxIterations {
			t.Fatalf("first solve: fail=%v, want max_iterations", res.FailReason)
		}
		l, err := pmat.EvenLayout(c, swap2.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Setup(l, swap2); err != nil {
			t.Fatal(err)
		}
		if err := s.SetupRHS(b2, 1); err != nil {
			t.Fatal(err)
		}
		res, err = s.Solve(context.Background(), make([]float64, swap2.Rows))
		if err == nil || res.FailReason != FailSingular {
			t.Errorf("second solve: fail=%v err=%v, want singular from the zero diagonal", res.FailReason, err)
		}
	})
}

// flakyOp is a matrix-free identity whose first product poisons the
// iteration with a NaN: it gives different answers for the same input,
// which breaks the determinism contract. The first solve ends in a
// typed breakdown, the second solves.
type flakyOp struct{ calls int }

func (o *flakyOp) MatMult(id ID, x, y []float64, length int) int {
	o.calls++
	copy(y, x)
	if o.calls == 1 {
		y[0] = math.NaN()
	}
	return OK
}

// TestSessionDoorRows gives the Session doors no other upper-layer test
// opens their row: SetupOperator over an assembled Setup, and a caller's
// own second Solve after a typed failure.
func TestSessionDoorRows(t *testing.T) {
	a, _ := lap49.sys(t)
	xstar, b := manufactured(a)
	params := map[string]string{"solver": "cg", "preconditioner": "none", "tol": "1e-10"}

	t.Run("SetupOperator", func(t *testing.T) {
		run(t, 1, func(c *comm.Comm) {
			s, l := openOn(t, c, "petsc", SessionOptions{Params: params}, a, b)
			defer s.Close()
			op := &appOperator{a: a}
			if err := s.SetupOperator(l, op); err != nil {
				t.Fatal(err)
			}
			x := make([]float64, l.LocalN)
			res, err := s.Solve(context.Background(), x)
			checkConverged(t, "SetupOperator", l, res, err, x, xstar)
			if op.calls == 0 {
				t.Error("the solve never applied the matrix-free operator")
			}
		})
	})

	// On the 2×2 skew-symmetric [0 1; −1 0], p·Ap = 0 at the first step:
	// a Krylov breakdown the port reports typed, for both CG loops' hosts.
	t.Run("CGBreakdown", func(t *testing.T) {
		coo := sparse.NewCOO(2, 2)
		coo.Append(0, 1, 1)
		coo.Append(1, 0, -1)
		skew := coo.ToCSR()
		for _, backend := range []string{"petsc", "trilinos"} {
			run(t, 1, func(c *comm.Comm) {
				s, l := openOn(t, c, backend, SessionOptions{Params: params}, skew, []float64{1, 1})
				defer s.Close()
				res, err := s.Solve(context.Background(), make([]float64, l.LocalN))
				if err == nil || res.FailReason != FailBreakdown || res.Aborted || res.Iterations != 1 {
					t.Errorf("%s: fail=%v aborted=%v its=%d err=%v, want a typed breakdown at iteration 1",
						backend, res.FailReason, res.Aborted, res.Iterations, err)
				}
			})
		}
	})

	t.Run("CallerRetry", func(t *testing.T) {
		run(t, 1, func(c *comm.Comm) {
			l, err := pmat.EvenLayout(c, 8)
			if err != nil {
				t.Fatal(err)
			}
			s, err := OpenSession("petsc", c, SessionOptions{Params: params})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.SetupOperator(l, &flakyOp{}); err != nil {
				t.Fatal(err)
			}
			rhs := []float64{1, 1, 1, 1, 1, 1, 1, 1}
			if err := s.SetupRHS(rhs, 1); err != nil {
				t.Fatal(err)
			}
			x := make([]float64, 8)
			res, err := s.Solve(context.Background(), x)
			if err == nil || res.FailReason != FailBreakdown || res.Aborted || res.Attempts != 1 {
				t.Errorf("first solve: fail=%v aborted=%v attempts=%d err=%v, want one run ending in a typed breakdown",
					res.FailReason, res.Aborted, res.Attempts, err)
				return
			}
			// The operator broke the determinism contract, not the
			// session: the caller may run the same solve again.
			res, err = s.Solve(context.Background(), x)
			if err != nil || !res.Converged {
				t.Errorf("second solve: converged=%v fail=%v err=%v, want it to solve", res.Converged, res.FailReason, err)
				return
			}
			for i, v := range x {
				if math.Abs(v-rhs[i]) > 1e-12 {
					t.Errorf("x[%d] = %v, want %v", i, v, rhs[i])
				}
			}
		})
	})
}
