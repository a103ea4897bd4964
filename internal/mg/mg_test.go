package mg

import (
	"errors"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/slu"
	"repro/internal/sparse"
)

// directCoarse is a plain direct coarse solve for the library-level
// tests (the LISI-re-entrant coarse solve is tested in package core).
func directCoarse(a *sparse.CSR, b []float64) ([]float64, error) {
	f, err := slu.Factor(a, slu.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

func run(t *testing.T, p int, fn func(c *comm.Comm)) {
	t.Helper()
	w, err := comm.NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(fn); err != nil {
		t.Fatalf("Run on %d ranks: %v", p, err)
	}
}

// fine returns this rank's block rows of p over an even layout as the
// fine operator, and its right-hand side.
func fine(t *testing.T, c *comm.Comm, p mesh.Problem) (*pmat.Mat, []float64) {
	t.Helper()
	l, err := pmat.EvenLayout(c, p.N())
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := p.GenerateLocal(l)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pmat.NewMat(l, a)
	if err != nil {
		t.Fatal(err)
	}
	return m, b
}

func TestHierarchyDepth(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		a, _ := fine(t, c, mesh.PaperProblem(31))
		s, err := New(c, a, Options{Coarse: directCoarse})
		if err != nil {
			t.Fatal(err)
		}
		// 31 -> 15 -> 7 -> 3
		if s.Levels() != 4 {
			t.Errorf("levels = %d, want 4", s.Levels())
		}
	})
}

func TestVCycleSolvesPaperProblem(t *testing.T) {
	p := mesh.PaperProblem(31)
	aG, bG, err := p.GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	f, err := slu.Factor(aG, slu.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f.Solve(bG)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{1, 2, 3} {
		run(t, np, func(c *comm.Comm) {
			a, b := fine(t, c, p)
			s, err := New(c, a, Options{Coarse: directCoarse, Tol: 1e-10})
			if err != nil {
				t.Fatal(err)
			}
			l := s.FineOperator().L
			x := make([]float64, l.LocalN)
			if err := s.Solve(b, x); err != nil {
				t.Fatalf("p=%d: %v", np, err)
			}
			got := pmat.AllGather(l, x)
			for i := range ref {
				if math.Abs(got[i]-ref[i]) > 1e-6 {
					t.Fatalf("p=%d: x[%d] err %g", np, i, math.Abs(got[i]-ref[i]))
				}
			}
			if s.Cycles() < 1 || s.Cycles() > 40 {
				t.Errorf("p=%d: %d cycles", np, s.Cycles())
			}
		})
	}
}

func TestNearGridIndependentConvergence(t *testing.T) {
	// The multigrid hallmark: cycle counts stay bounded as the grid
	// refines (unlike single-level iterations, which grow).
	cycles := map[int]int{}
	for _, n := range []int{15, 31, 63} {
		p := mesh.PaperProblem(n)
		run(t, 2, func(c *comm.Comm) {
			a, b := fine(t, c, p)
			s, err := New(c, a, Options{Coarse: directCoarse, Tol: 1e-8})
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, len(b))
			if err := s.Solve(b, x); err != nil {
				t.Fatal(err)
			}
			if c.Rank() == 0 {
				cycles[n] = s.Cycles()
			}
		})
	}
	for n, cy := range cycles {
		if cy > 30 {
			t.Errorf("n=%d: %d cycles — not multigrid-like", n, cy)
		}
	}
	if cycles[63] > cycles[15]*3 {
		t.Errorf("cycle growth too strong: %v", cycles)
	}
}

func TestProlongationIsScaledRestrictionTranspose(t *testing.T) {
	// Full weighting and bilinear interpolation satisfy P = 4·Rᵀ.
	run(t, 2, func(c *comm.Comm) {
		a, _ := fine(t, c, mesh.PaperProblem(7))
		s, err := New(c, a, Options{Coarse: directCoarse})
		if err != nil {
			t.Fatal(err)
		}
		lvl := s.levels[0]
		r := lvl.restrict.GatherGlobal()
		pr := lvl.prolong.GatherGlobal()
		rt := r.Transpose()
		for i := range rt.Vals {
			rt.Vals[i] *= 4
		}
		if !rt.AlmostEqual(pr, 1e-14) {
			t.Error("P != 4·Rᵀ")
		}
	})
}

func TestConstructionErrors(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		a, _ := fine(t, c, mesh.PaperProblem(31))
		if _, err := New(c, a, Options{}); err == nil {
			t.Error("missing Coarse accepted")
		}
		rect := mesh.PaperProblem(31)
		rect.Ny = 30
		for name, p := range map[string]mesh.Problem{
			"non-square": rect, "even": mesh.PaperProblem(32), "non-coarsenable": mesh.PaperProblem(5),
		} {
			a, _ := fine(t, c, p)
			if _, err := New(c, a, Options{Coarse: directCoarse}); !errors.Is(err, ErrGrid) {
				t.Errorf("%s grid: err = %v, want ErrGrid", name, err)
			}
		}
	})
}

// TestZeroDiagonalFailsEveryRank: a zero on one rank's diagonal fails
// the build on every rank, so none is left in a collective alone.
func TestZeroDiagonalFailsEveryRank(t *testing.T) {
	p := mesh.PaperProblem(7)
	aG, _, err := p.GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	for i := aG.RowPtr[0]; i < aG.RowPtr[1]; i++ {
		if aG.ColInd[i] == 0 {
			aG.Vals[i] = 0
		}
	}
	for _, np := range []int{1, 2} {
		run(t, np, func(c *comm.Comm) {
			l, err := pmat.EvenLayout(c, aG.Rows)
			if err != nil {
				t.Fatal(err)
			}
			a, err := pmat.NewMat(l, aG.SubMatrix(l.Start, l.Start+l.LocalN))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := New(c, a, Options{Coarse: directCoarse}); !errors.Is(err, sparse.ErrZeroDiagonal) {
				t.Errorf("p=%d rank %d: err = %v, want ErrZeroDiagonal", np, c.Rank(), err)
			}
		})
	}
}

func TestSolveArgValidation(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		a, _ := fine(t, c, mesh.PaperProblem(15))
		s, err := New(c, a, Options{Coarse: directCoarse})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Solve(make([]float64, 3), make([]float64, 3)); err == nil {
			t.Error("wrong vector lengths accepted")
		}
	})
}

func TestCoarseFailurePropagates(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		a, b := fine(t, c, mesh.PaperProblem(15))
		fail := func(a *sparse.CSR, b []float64) ([]float64, error) {
			return nil, errFail
		}
		s, err := New(c, a, Options{Coarse: fail})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, len(b))
		if err := s.Solve(b, x); err == nil {
			t.Error("coarse failure not propagated")
		}
	})
}

var errFail = &failErr{}

type failErr struct{}

func (*failErr) Error() string { return "synthetic coarse failure" }

func TestCyclesBeatSmootherAlone(t *testing.T) {
	// Ablation shape: a pure smoother stalls where the V-cycle converges.
	run(t, 1, func(c *comm.Comm) {
		a, b := fine(t, c, mesh.PaperProblem(31))
		s, err := New(c, a, Options{Coarse: directCoarse, Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		l := a.L
		x := make([]float64, l.LocalN)
		if err := s.Solve(b, x); err != nil {
			t.Fatal(err)
		}
		mgWork := s.Cycles() * (s.Levels() * 4) // rough smoother-sweep equivalents

		// Same work in plain damped Jacobi on the fine level.
		d := a.Diagonal()
		xj := make([]float64, l.LocalN)
		r := make([]float64, l.LocalN)
		for it := 0; it < mgWork; it++ {
			a.Apply(r, xj)
			for i := range xj {
				xj[i] += 0.8 * (b[i] - r[i]) / d[i]
			}
		}
		resMG := a.Residual(b, x)
		resJac := a.Residual(b, xj)
		if resMG*100 > resJac {
			t.Errorf("V-cycle (%g) not clearly better than Jacobi (%g) at equal work", resMG, resJac)
		}
	})
}

// TestGalerkinHierarchyConverges: the hierarchy is built from the
// operator it is given, not from a model of it: a convection-dominated
// operator on a skewed row layout still solves to the direct answer.
func TestGalerkinHierarchyConverges(t *testing.T) {
	p := mesh.PaperProblem(31)
	p.Convection = 30
	aG, bG, err := p.GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	f, err := slu.Factor(aG, slu.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f.Solve(bG)
	if err != nil {
		t.Fatal(err)
	}
	run(t, 2, func(c *comm.Comm) {
		l, err := pmat.NewLayout(c, []int{700, aG.Rows - 700}[c.Rank()])
		if err != nil {
			t.Fatal(err)
		}
		a, err := pmat.NewMat(l, aG.SubMatrix(l.Start, l.Start+l.LocalN))
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(c, a, Options{Coarse: directCoarse, Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, l.LocalN)
		if err := s.Solve(bG[l.Start:l.Start+l.LocalN], x); err != nil {
			t.Fatal(err)
		}
		got := pmat.AllGather(l, x)
		for i := range ref {
			if math.Abs(got[i]-ref[i]) > 1e-6 {
				t.Fatalf("x[%d] err %g", i, math.Abs(got[i]-ref[i]))
			}
		}
		if s.Cycles() > 30 {
			t.Errorf("hierarchy took %d cycles", s.Cycles())
		}
	})
}

func TestWCycleConverges(t *testing.T) {
	p := mesh.PaperProblem(31)
	cycles := map[int]int{}
	for _, gamma := range []int{1, 2} {
		run(t, 2, func(c *comm.Comm) {
			a, b := fine(t, c, p)
			s, err := New(c, a, Options{Coarse: directCoarse, Tol: 1e-9, Gamma: gamma})
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, len(b))
			if err := s.Solve(b, x); err != nil {
				t.Fatalf("gamma=%d: %v", gamma, err)
			}
			if c.Rank() == 0 {
				cycles[gamma] = s.Cycles()
			}
		})
	}
	// A W-cycle does strictly more coarse work per cycle, so it needs at
	// most as many cycles as the V-cycle.
	if cycles[2] > cycles[1] {
		t.Errorf("W-cycle (%d) took more cycles than V-cycle (%d)", cycles[2], cycles[1])
	}
}
