// Package integration_test exercises the full CCA-LISI stack end to end:
// mesh generation (with the paper's node-local file round trip), the CCA
// framework assembly of Figure 4, every solver component, format paths,
// and the manufactured-solution accuracy of the complete pipeline.
package integration_test

import (
	"math"
	"testing"

	"repro/internal/cca"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

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

// TestFigure3FilePipeline reproduces the paper's test architecture
// including the node-local files: each rank generates its mesh block,
// writes it out, reads it back, and pushes the read-back data through
// the LISI port.
func TestFigure3FilePipeline(t *testing.T) {
	dir := t.TempDir()
	p := mesh.PaperProblem(20)
	run(t, 4, func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, p.N())
		if err != nil {
			t.Fatal(err)
		}
		a, b, err := p.GenerateLocal(l)
		if err != nil {
			t.Fatal(err)
		}
		if err := mesh.WriteLocal(dir, c.Rank(), a, b); err != nil {
			t.Fatal(err)
		}
		// Fresh read (the compute phase reads node-local files).
		a2, b2, err := mesh.ReadLocal(dir, c.Rank())
		if err != nil {
			t.Fatal(err)
		}

		s := core.NewKSPComponent()
		checkOK(t, s.Initialize(c))
		checkOK(t, s.SetStartRow(l.Start))
		checkOK(t, s.SetLocalRows(l.LocalN))
		checkOK(t, s.SetGlobalCols(p.N()))
		checkOK(t, s.SetupMatrix(a2.Vals, a2.RowPtr, a2.ColInd, core.CSR, len(a2.RowPtr), a2.NNZ()))
		checkOK(t, s.SetupRHS(b2, l.LocalN, 1))
		checkOK(t, s.Set("tol", "1e-10"))
		x := make([]float64, l.LocalN)
		status := make([]float64, core.StatusLen)
		checkOK(t, s.Solve(x, status, l.LocalN, core.StatusLen))

		m, err := pmat.NewMat(l, a)
		if err != nil {
			t.Fatal(err)
		}
		if res := m.Residual(b, x); res > 1e-6 {
			t.Errorf("file-pipeline residual %g", res)
		}
	})
}

// TestManufacturedSolutionThroughEveryComponent checks that the complete
// pipeline (mesh → LISI port → solver component) reaches the
// discretization-accurate solution of a PDE with known analytic answer,
// for every solver component.
func TestManufacturedSolutionThroughEveryComponent(t *testing.T) {
	const n = 31 // odd so the mg component participates
	p, exact := mesh.ManufacturedProblem(n)
	classes := map[string]map[string]string{
		core.ClassKSPSolver:   {"solver": "bicgstab", "preconditioner": "ilu", "tol": "1e-10"},
		core.ClassAztecSolver: {"solver": "bicgstab", "preconditioner": "domdecomp", "tol": "1e-10"},
		core.ClassSLUSolver:   {"refine_steps": "1"},
		core.ClassMGSolver:    {"tol": "1e-10"},
	}
	for class, params := range classes {
		run(t, 2, func(c *comm.Comm) {
			fw := cca.NewFramework(c)
			mustNil(t, fw.CreateInstance("driver", core.ClassDriver))
			mustNil(t, fw.CreateInstance("solver", class))
			mustNil(t, fw.Connect("driver", "solver", "solver", core.PortSparseSolver))
			comp, _ := fw.Instance("driver")
			res, err := comp.(*core.DriverComponent).SolveProblem(p, core.CSR, params)
			if err != nil {
				t.Fatalf("%s: %v", class, err)
			}
			// Compare with the analytic solution: error bounded by the
			// discretization error (~h² with h = 1/32).
			want := p.ExactGridValues(res.Layout, exact)
			maxErr := 0.0
			for i := range want {
				if e := math.Abs(res.X[i] - want[i]); e > maxErr {
					maxErr = e
				}
			}
			maxErr = c.AllReduceFloat64(maxErr, comm.OpMax)
			if maxErr > 5e-3 {
				t.Errorf("%s: error vs analytic solution %g", class, maxErr)
			}
		})
	}
}

// TestAllComponentsAgreeAtScale solves one mid-size system on 8 ranks
// with every component and checks the solutions agree pairwise.
func TestAllComponentsAgreeAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size cross-component comparison")
	}
	const n = 63
	p := mesh.PaperProblem(n)
	classes := []string{core.ClassKSPSolver, core.ClassAztecSolver, core.ClassSLUSolver, core.ClassMGSolver}
	params := map[string]map[string]string{
		core.ClassKSPSolver:   {"solver": "gmres", "preconditioner": "ilu", "tol": "1e-10"},
		core.ClassAztecSolver: {"solver": "gmres", "preconditioner": "domdecomp", "tol": "1e-10"},
		core.ClassSLUSolver:   nil,
		core.ClassMGSolver:    {"tol": "1e-10"},
	}
	solutions := make(map[string][]float64)
	for _, class := range classes {
		run(t, 8, func(c *comm.Comm) {
			fw := cca.NewFramework(c)
			mustNil(t, fw.CreateInstance("driver", core.ClassDriver))
			mustNil(t, fw.CreateInstance("solver", class))
			mustNil(t, fw.Connect("driver", "solver", "solver", core.PortSparseSolver))
			comp, _ := fw.Instance("driver")
			res, err := comp.(*core.DriverComponent).SolveProblem(p, core.CSR, params[class])
			if err != nil {
				t.Fatalf("%s: %v", class, err)
			}
			full := pmat.AllGather(res.Layout, res.X)
			if c.Rank() == 0 {
				solutions[class] = full
			}
		})
	}
	ref := solutions[core.ClassSLUSolver]
	for class, x := range solutions {
		maxErr := 0.0
		for i := range ref {
			if e := math.Abs(x[i] - ref[i]); e > maxErr {
				maxErr = e
			}
		}
		if maxErr > 1e-5 {
			t.Errorf("%s deviates from direct solution by %g", class, maxErr)
		}
	}
}

// TestCOOFormatThroughFramework runs the driver's COO transfer path with
// every iterative component on 3 ranks.
func TestCOOFormatThroughFramework(t *testing.T) {
	p := mesh.PaperProblem(12)
	for _, class := range []string{core.ClassKSPSolver, core.ClassAztecSolver} {
		run(t, 3, func(c *comm.Comm) {
			fw := cca.NewFramework(c)
			mustNil(t, fw.CreateInstance("driver", core.ClassDriver))
			mustNil(t, fw.CreateInstance("solver", class))
			mustNil(t, fw.Connect("driver", "solver", "solver", core.PortSparseSolver))
			comp, _ := fw.Instance("driver")
			res, err := comp.(*core.DriverComponent).SolveProblem(p, core.COO, map[string]string{"tol": "1e-9"})
			if err != nil {
				t.Fatalf("%s/COO: %v", class, err)
			}
			if !res.Converged {
				t.Errorf("%s/COO did not converge", class)
			}
		})
	}
}

// TestRepeatedWorldsAndFrameworks stresses lifecycle reuse: many
// consecutive SPMD regions, frameworks, and component instances in one
// process.
func TestRepeatedWorldsAndFrameworks(t *testing.T) {
	p := mesh.PaperProblem(8)
	for round := 0; round < 5; round++ {
		run(t, 2, func(c *comm.Comm) {
			fw := cca.NewFramework(c)
			mustNil(t, fw.CreateInstance("driver", core.ClassDriver))
			mustNil(t, fw.CreateInstance("s1", core.ClassKSPSolver))
			mustNil(t, fw.CreateInstance("s2", core.ClassSLUSolver))
			comp, _ := fw.Instance("driver")
			driver := comp.(*core.DriverComponent)
			for _, inst := range []string{"s1", "s2", "s1"} {
				mustNil(t, fw.Connect("driver", "solver", inst, core.PortSparseSolver))
				if _, err := driver.SolveProblem(p, core.CSR, map[string]string{"tol": "1e-8"}); err != nil {
					t.Fatalf("round %d %s: %v", round, inst, err)
				}
				mustNil(t, fw.Disconnect("driver", "solver"))
			}
		})
	}
}

// TestHeterogeneousParameterFlow sets every documented LISI key through
// the typed setters on the matching component and solves.
func TestHeterogeneousParameterFlow(t *testing.T) {
	p := mesh.PaperProblem(10)
	run(t, 1, func(c *comm.Comm) {
		l, _ := pmat.EvenLayout(c, p.N())
		a, b, _ := p.GenerateLocal(l)

		az := core.NewAztecComponent()
		checkOK(t, az.Initialize(c))
		checkOK(t, az.SetStartRow(0))
		checkOK(t, az.SetLocalRows(l.LocalN))
		checkOK(t, az.SetGlobalCols(p.N()))
		checkOK(t, az.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, core.CSR, len(a.RowPtr), a.NNZ()))
		checkOK(t, az.SetupRHS(b, l.LocalN, 1))
		checkOK(t, az.Set("solver", "gmres"))
		checkOK(t, az.Set("preconditioner", "ilut"))
		checkOK(t, az.SetDouble("tol", 1e-9))
		checkOK(t, az.SetDouble("drop_tol", 0.001))
		checkOK(t, az.SetDouble("fill", 2))
		checkOK(t, az.SetInt("maxits", 5000))
		checkOK(t, az.SetInt("restart", 40))
		checkOK(t, az.SetInt("poly_ord", 2))
		checkOK(t, az.Set("scaling", "rowsum"))
		checkOK(t, az.Set("conv", "rhs"))
		x := make([]float64, l.LocalN)
		status := make([]float64, core.StatusLen)
		checkOK(t, az.Solve(x, status, l.LocalN, core.StatusLen))

		m, _ := pmat.NewMat(l, a)
		if res := m.Residual(b, x); res > 1e-5 {
			t.Errorf("fully parameterized aztec solve residual %g", res)
		}
	})
}

// TestSparseDirectOnHardMatrix feeds an ill-scaled unsymmetric system
// through the direct component with equilibration and refinement.
func TestSparseDirectOnHardMatrix(t *testing.T) {
	n := 80
	a := sparse.RandomUnsymmetric(n, 5, 77).Clone()
	scale := make([]float64, n)
	for i := range scale {
		scale[i] = math.Pow(10, float64(i%10)-5)
	}
	a.ScaleRows(scale)
	xstar := sparse.RandomVector(n, 5)
	b := make([]float64, n)
	a.MulVec(b, xstar)

	run(t, 1, func(c *comm.Comm) {
		s := core.NewSLUComponent()
		checkOK(t, s.Initialize(c))
		checkOK(t, s.SetStartRow(0))
		checkOK(t, s.SetLocalRows(n))
		checkOK(t, s.SetGlobalCols(n))
		checkOK(t, s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, core.CSR, n+1, a.NNZ()))
		checkOK(t, s.SetupRHS(b, n, 1))
		checkOK(t, s.SetBool("equilibrate", true))
		checkOK(t, s.SetInt("refine_steps", 2))
		checkOK(t, s.SetDouble("pivot_threshold", 0.5))
		x := make([]float64, n)
		status := make([]float64, core.StatusLen)
		checkOK(t, s.Solve(x, status, n, core.StatusLen))
		for i := range x {
			if math.Abs(x[i]-xstar[i]) > 1e-6 {
				t.Fatalf("hard-matrix x[%d] err %g", i, math.Abs(x[i]-xstar[i]))
			}
		}
	})
}

func checkOK(t *testing.T, code int) {
	t.Helper()
	if code != core.OK {
		t.Fatalf("LISI call failed: %v", core.Check(code))
	}
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
