package core

import (
	"context"
	"math"
	"os"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// solveTrace is one full solve outcome: the local solution bits and the
// recorded residual history.
type solveTrace struct {
	x         []uint64
	residuals []telemetry.ResidualPoint
}

// testSystem yields one global linear system for the determinism
// tables. The constructors below cover every ingestion path a solve
// can arrive through: the paper's 2-D model problem, a symmetric
// stencil, the 3-D unstructured FEM generator, and a Matrix Market
// corpus file.
type testSystem func(t *testing.T) (*sparse.CSR, []float64)

func paperSystem(gridN int) testSystem {
	return func(t *testing.T) (*sparse.CSR, []float64) {
		t.Helper()
		a, rhs, err := mesh.PaperProblem(gridN).GenerateGlobal()
		if err != nil {
			t.Fatal(err)
		}
		return a, rhs
	}
}

func laplaceSystem(gridN int) testSystem {
	return func(t *testing.T) (*sparse.CSR, []float64) {
		t.Helper()
		a := sparse.Laplace2D(gridN, gridN)
		return a, onesFor(a)
	}
}

func femSystem(n int, seed int64) testSystem {
	return func(t *testing.T) (*sparse.CSR, []float64) {
		t.Helper()
		a, rhs, err := mesh.DefaultFEMProblem(n, seed).GenerateGlobal()
		if err != nil {
			t.Fatal(err)
		}
		return a, rhs
	}
}

func mmSystem(path string) testSystem {
	return func(t *testing.T) (*sparse.CSR, []float64) {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		a, err := sparse.ReadMatrixMarket(f)
		if err != nil {
			t.Fatal(err)
		}
		return a, onesFor(a)
	}
}

func onesFor(a *sparse.CSR) []float64 {
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1
	}
	return rhs
}

// solveWithWorkers runs one session solve of the given config with the
// requested worker count and returns its trace.
func solveWithWorkers(t *testing.T, c *comm.Comm, backend string, sys testSystem, params map[string]string, workers int) solveTrace {
	t.Helper()
	a, rhs := sys(t)
	l, err := pmat.EvenLayout(c, a.Rows)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	s, err := OpenSession(backend, c, SessionOptions{
		Params:   params,
		Workers:  workers,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Setup(l, a); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupRHS(rhs, 1); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, l.LocalN)
	if _, err := s.Solve(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	tr := solveTrace{x: make([]uint64, len(x))}
	for i, v := range x {
		tr.x[i] = math.Float64bits(v)
	}
	tr.residuals = rec.Snapshot().Residuals
	return tr
}

// determinismTable is the backend × operator matrix the bitwise
// contract runs over. Beyond the model problems it pins one
// FEM-generated and one Matrix-Market-ingested operator: determinism
// must not depend on where the system came from.
var determinismTable = []struct {
	name    string
	backend string
	sys     testSystem
	params  map[string]string
}{
	{"superlu", "superlu", paperSystem(12), map[string]string{"refine_steps": "1"}},
	{"petsc-cg", "petsc", laplaceSystem(12), map[string]string{
		"solver": "cg", "preconditioner": "jacobi", "tol": "1e-8", "maxits": "400"}},
	{"petsc-gmres", "petsc", paperSystem(12), map[string]string{
		"solver": "gmres", "preconditioner": "bjacobi", "tol": "1e-8", "maxits": "400", "restart": "30"}},
	{"trilinos-bicgstab", "trilinos", paperSystem(12), map[string]string{
		"solver": "bicgstab", "preconditioner": "ilut", "tol": "1e-8"}},
	{"mg", "mg", paperSystem(15), map[string]string{"tol": "1e-8"}},
	{"petsc-cg-fem", "petsc", femSystem(5, 7), map[string]string{
		"solver": "cg", "preconditioner": "jacobi", "tol": "1e-8", "maxits": "400"}},
	{"trilinos-gmres-mm", "trilinos", mmSystem("../../testdata/corpus/dd40_gen.mtx"), map[string]string{
		"solver": "gmres", "preconditioner": "jacobi", "tol": "1e-8", "maxits": "400"}},
}

// TestSolveBitwiseDeterministicAcrossWorkers is the determinism
// property test of the two-level parallelism model: for every backend
// config, Session.Solve must produce byte-identical residual histories
// and solution vectors for Workers ∈ {1, 2, 4, 7}. This is the
// contract that makes the worker count a pure performance knob — run
// it under -race to also exercise the pool's synchronization.
func TestSolveBitwiseDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range determinismTable {
		t.Run(tc.name, func(t *testing.T) {
			run(t, 1, func(c *comm.Comm) {
				ref := solveWithWorkers(t, c, tc.backend, tc.sys, tc.params, 1)
				if len(ref.residuals) == 0 && tc.backend != "superlu" {
					t.Fatalf("reference solve recorded no residual history")
				}
				for _, w := range []int{2, 4, 7} {
					got := solveWithWorkers(t, c, tc.backend, tc.sys, tc.params, w)
					if len(got.residuals) != len(ref.residuals) {
						t.Fatalf("workers=%d: residual history has %d points, workers=1 has %d",
							w, len(got.residuals), len(ref.residuals))
					}
					for i := range got.residuals {
						if math.Float64bits(got.residuals[i].Residual) != math.Float64bits(ref.residuals[i].Residual) ||
							got.residuals[i].Iteration != ref.residuals[i].Iteration {
							t.Fatalf("workers=%d: residual[%d] = (%d, %x), workers=1 = (%d, %x)",
								w, i,
								got.residuals[i].Iteration, math.Float64bits(got.residuals[i].Residual),
								ref.residuals[i].Iteration, math.Float64bits(ref.residuals[i].Residual))
						}
					}
					for i := range got.x {
						if got.x[i] != ref.x[i] {
							t.Fatalf("workers=%d: x[%d] = %x, workers=1 = %x", w, i, got.x[i], ref.x[i])
						}
					}
				}
			})
		})
	}
}
