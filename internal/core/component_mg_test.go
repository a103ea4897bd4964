package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/slu"
	"repro/internal/sparse"
)

func TestMGComponentSolvesPaperProblem(t *testing.T) {
	p := mesh.PaperProblem(15)
	ref := referenceSolution(t, p)
	mgParams := map[string]string{"tol": "1e-10"}
	for _, np := range []int{1, 2, 3} {
		run(t, np, func(c *comm.Comm) {
			_, driver := wire(t, c, ClassMGSolver)
			res, err := driver.SolveProblem(p, CSR, mgParams)
			if err != nil {
				t.Fatalf("mg on %d ranks: %v", np, err)
			}
			if !res.Converged {
				t.Fatal("mg did not converge")
			}
			if res.Iterations < 1 {
				t.Error("mg reported no cycles")
			}
			checkAgainstReference(t, c, res, ref, 1e-5, "mg")
		})
	}
}

// stageMG stages this rank's even block of a and b on a fresh mg
// component.
func stageMG(t *testing.T, c *comm.Comm, a *sparse.CSR, b []float64) (*MGComponent, *pmat.Layout) {
	t.Helper()
	l, err := pmat.EvenLayout(c, a.Rows)
	if err != nil {
		t.Fatal(err)
	}
	s := NewMGComponent()
	mustOK(t, s.Initialize(c), "init")
	mustOK(t, s.SetStartRow(l.Start), "start")
	mustOK(t, s.SetLocalRows(l.LocalN), "rows")
	mustOK(t, s.SetGlobalCols(a.Rows), "cols")
	loc := a.SubMatrix(l.Start, l.Start+l.LocalN)
	mustOK(t, s.SetupMatrix(loc.Vals, loc.RowPtr, loc.ColInd, CSR, l.LocalN+1, loc.NNZ()), "setup")
	mustOK(t, s.SetupRHS(b[l.Start:l.Start+l.LocalN], l.LocalN, 1), "rhs")
	return s, l
}

// TestMGComponentSolvesStagedMatrix: mg solves whatever matrix of an
// odd n×n grid is staged — a random one and a convection-dominated
// one here — to the direct answer, and refuses a row count that is no
// such grid as unsupported.
func TestMGComponentSolvesStagedMatrix(t *testing.T) {
	conv := mesh.PaperProblem(15)
	conv.Convection = 30
	convA, _, err := conv.GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"random-225", sparse.RandomDiagDominant(225, 4, 3)},
		{"convection-30", convA},
	} {
		_, b := manufactured(sys.a)
		f, err := slu.Factor(sys.a, slu.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range []int{1, 2, 3} {
			run(t, np, func(c *comm.Comm) {
				s, l := stageMG(t, c, sys.a, b)
				mustOK(t, s.Set("tol", "1e-10"), "tol")
				x := make([]float64, l.LocalN)
				status := make([]float64, StatusLen)
				mustOK(t, s.Solve(x, status, l.LocalN, StatusLen), sys.name+" solve")
				ferr := 0.0
				for i, v := range pmat.AllGather(l, x) {
					ferr = math.Max(ferr, math.Abs(v-ref[i]))
				}
				if ferr /= sparse.NormInf(ref); ferr > 1e-8 {
					t.Errorf("%s p=%d: forward error %.3e against the direct solve", sys.name, np, ferr)
				}
			})
		}
	}
	for _, n := range []int{224, 256} { // not a square; an even square
		a := sparse.RandomDiagDominant(n, 4, 3)
		_, b := manufactured(a)
		for _, np := range []int{1, 2} {
			run(t, np, func(c *comm.Comm) {
				s, l := stageMG(t, c, a, b)
				status := make([]float64, StatusLen)
				if code := s.Solve(make([]float64, l.LocalN), status, l.LocalN, StatusLen); code != ErrUnsupported {
					t.Errorf("%d rows p=%d: Solve returned %d, want ErrUnsupported", n, np, code)
				}
			})
		}
	}
}

func TestMGComponentParamValidation(t *testing.T) {
	s := NewMGComponent()
	if s.Set("cycles", "0") != ErrBadArg {
		t.Error("cycles=0 accepted")
	}
	for _, kv := range [][2]string{
		{"tol", "zz"}, {"tol", "Inf"}, {"tol", "-1"},
		{"omega", "NaN"}, {"omega", "-3"},
	} {
		if s.Set(kv[0], kv[1]) != ErrBadArg {
			t.Errorf("%s=%s accepted", kv[0], kv[1])
		}
	}
	for _, key := range []string{"unknown", "convection", "galerkin"} {
		if s.Set(key, "1") != ErrUnknownKey {
			t.Errorf("%s accepted", key)
		}
	}
	mustOK(t, s.SetInt("grid_n", 16), "grid_n") // ignored: any value
	mustOK(t, s.SetDouble("omega", 0.7), "omega")
	mustOK(t, s.SetInt("smooth_sweeps", 3), "sweeps")
	if !strings.Contains(s.GetAll(), "ignored.grid_n=16") {
		t.Error("GetAll does not report grid_n as ignored")
	}
}

func TestMGComponentReusesHierarchyAndInnerFactor(t *testing.T) {
	p := mesh.PaperProblem(15)
	a, b, err := p.GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	run(t, 1, func(c *comm.Comm) {
		s := NewMGComponent()
		mustOK(t, s.Initialize(c), "init")
		mustOK(t, s.SetStartRow(0), "start")
		mustOK(t, s.SetLocalRows(a.Rows), "rows")
		mustOK(t, s.SetGlobalCols(a.Rows), "cols")
		mustOK(t, s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, a.Rows+1, a.NNZ()), "setup")
		x := make([]float64, a.Rows)
		status := make([]float64, StatusLen)
		for i := 0; i < 3; i++ {
			mustOK(t, s.SetupRHS(b, a.Rows, 1), "rhs")
			mustOK(t, s.Solve(x, status, a.Rows, StatusLen), "solve")
		}
		// The pool is handed over at every Solve: a new worker count
		// rebuilds nothing.
		mustOK(t, s.Set("workers", "2"), "workers")
		mustOK(t, s.Solve(x, status, a.Rows, StatusLen), "solve")
		s.releaseResources()
		if got := int(status[StatusFactorizations]); got != 1 {
			t.Errorf("hierarchy built %d times across 4 solves, want 1", got)
		}
		// Verify the answer too.
		r := a.Residual(b, x)
		if sparse.Norm2(r) > 1e-6*sparse.Norm2(b) {
			t.Errorf("mg residual %g", sparse.Norm2(r))
		}
		// Inner SLU component reused its factorization across all cycles.
		if s.coarse == nil || s.coarse.factorizations != 1 {
			t.Errorf("inner coarse component factored %d times, want 1", s.coarse.factorizations)
		}
		if math.IsNaN(status[StatusResidual]) {
			t.Error("status residual NaN")
		}
	})
}
