package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/sparse"
)

func TestMGComponentSolvesPaperProblem(t *testing.T) {
	p := mesh.PaperProblem(15)
	ref := referenceSolution(t, p)
	mgParams := map[string]string{
		"grid_n": "15",
		"tol":    "1e-10",
	}
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

func TestMGComponentRequiresGridParam(t *testing.T) {
	p := mesh.PaperProblem(15)
	run(t, 1, func(c *comm.Comm) {
		_, driver := wire(t, c, ClassMGSolver)
		if _, err := driver.SolveProblem(p, CSR, nil); err == nil {
			t.Error("mg without grid_n succeeded")
		}
	})
}

func TestMGComponentRejectsForeignMatrix(t *testing.T) {
	// A matrix that is not the model operator must be refused — geometric
	// MG cannot solve arbitrary systems.
	a := sparse.RandomDiagDominant(225, 4, 3) // 15² rows but wrong values
	run(t, 1, func(c *comm.Comm) {
		s := NewMGComponent()
		mustOK(t, s.Initialize(c), "init")
		mustOK(t, s.SetStartRow(0), "start")
		mustOK(t, s.SetLocalRows(225), "rows")
		mustOK(t, s.SetGlobalCols(225), "cols")
		mustOK(t, s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, 226, a.NNZ()), "setup")
		mustOK(t, s.SetInt("grid_n", 15), "grid_n")
		mustOK(t, s.SetupRHS(make([]float64, 225), 225, 1), "rhs")
		x := make([]float64, 225)
		status := make([]float64, StatusLen)
		if code := s.Solve(x, status, 225, StatusLen); code != ErrUnsupported {
			t.Errorf("foreign matrix returned %d, want ErrUnsupported", code)
		}
	})
}

func TestMGComponentParamValidation(t *testing.T) {
	s := NewMGComponent()
	if s.Set("grid_n", "16") != ErrBadArg { // even
		t.Error("even grid_n accepted")
	}
	if s.Set("grid_n", "x") != ErrBadArg {
		t.Error("non-numeric grid_n accepted")
	}
	if s.Set("cycles", "0") != ErrBadArg {
		t.Error("cycles=0 accepted")
	}
	for _, kv := range [][2]string{
		{"tol", "zz"}, {"tol", "Inf"}, {"tol", "-1"},
		{"omega", "NaN"}, {"omega", "-3"}, {"convection", "Inf"},
	} {
		if s.Set(kv[0], kv[1]) != ErrBadArg {
			t.Errorf("%s=%s accepted", kv[0], kv[1])
		}
	}
	if s.Set("unknown", "1") != ErrUnknownKey {
		t.Error("unknown key accepted")
	}
	mustOK(t, s.SetInt("grid_n", 15), "grid_n")
	mustOK(t, s.SetDouble("omega", 0.7), "omega")
	mustOK(t, s.SetInt("smooth_sweeps", 3), "sweeps")
	mustOK(t, s.SetDouble("convection", 3), "convection")
	if !strings.Contains(s.GetAll(), "grid_n=15") {
		t.Error("GetAll missing grid_n")
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
		mustOK(t, s.SetInt("grid_n", 15), "grid_n")
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
