package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

// steadyStateAllocBound is the per-solve allocation budget for
// second-and-later Session.Solve calls against an unchanged system. The
// steady-state path is designed to be allocation-free; the small budget
// absorbs incidental runtime allocations without letting a per-solve
// make() slip back in.
const steadyStateAllocBound = 10

// TestSessionSolveSteadyStateAllocs pins the tentpole end to end: once a
// session's first Solve has built the operator, the configured solver,
// its workspaces, and the comm pools, every later Solve against the
// staged system stays under steadyStateAllocBound allocations — for
// every registered backend, every accepted solver value, each apply-loop
// preconditioner, row scaling, a worker pool and multigrid. It
// is the measured gate on the iteration loops of ksp, aztec and mg. A
// single-rank world makes the process-global malloc counter
// deterministic; the multi-rank path is exercised by
// TestApplyAllocsMultiRank (pmat) and the comm in-place tests.
func TestSessionSolveSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		backend   string
		gridN     int
		symmetric bool // use an SPD Laplacian (CG requires it; the mesh operator is negative definite)
		workers   int
		params    map[string]string
	}{
		{"superlu", "superlu", 12, false, 0, map[string]string{"refine_steps": "1"}},
		{"petsc-cg", "petsc", 12, true, 0, map[string]string{
			"solver": "cg", "preconditioner": "jacobi", "tol": "1e-8", "maxits": "400"}},
		{"petsc-gmres", "petsc", 12, false, 0, map[string]string{
			"solver": "gmres", "preconditioner": "jacobi", "tol": "1e-8", "maxits": "400", "restart": "30"}},
		{"petsc-fgmres-ilu", "petsc", 12, false, 0, map[string]string{
			"solver": "fgmres", "preconditioner": "ilu", "tol": "1e-8", "maxits": "400"}},
		{"petsc-bicgstab-sor", "petsc", 12, false, 0, map[string]string{
			"solver": "bicgstab", "preconditioner": "sor", "tol": "1e-8", "maxits": "400"}},
		{"petsc-tfqmr-ssor", "petsc", 12, false, 0, map[string]string{
			"solver": "tfqmr", "preconditioner": "ssor", "tol": "1e-8", "maxits": "400"}},
		{"petsc-richardson-bjacobi", "petsc", 12, true, 0, map[string]string{
			"solver": "richardson", "preconditioner": "bjacobi", "tol": "1e-8", "maxits": "2000"}},
		{"petsc-chebyshev", "petsc", 12, true, 0, map[string]string{
			"solver": "chebyshev", "preconditioner": "jacobi", "tol": "1e-8", "maxits": "2000"}},
		{"petsc-gmres-ilu-w2", "petsc", 12, false, 2, map[string]string{
			"solver": "gmres", "preconditioner": "ilu", "tol": "1e-8", "maxits": "400"}},
		{"trilinos-bicgstab", "trilinos", 12, false, 0, map[string]string{
			"solver": "bicgstab", "preconditioner": "jacobi", "tol": "1e-8"}},
		{"trilinos-cg-symgs", "trilinos", 12, true, 0, map[string]string{
			"solver": "cg", "preconditioner": "symgs", "tol": "1e-8"}},
		{"trilinos-gmres-ilut", "trilinos", 12, false, 0, map[string]string{
			"solver": "gmres", "preconditioner": "ilut", "tol": "1e-8"}},
		{"trilinos-cgs-neumann", "trilinos", 12, false, 0, map[string]string{
			"solver": "cgs", "preconditioner": "neumann", "tol": "1e-8"}},
		{"trilinos-bicgstab-ls", "trilinos", 12, false, 0, map[string]string{
			"solver": "bicgstab", "preconditioner": "ls", "tol": "1e-8"}},
		{"trilinos-gmres-rowsum", "trilinos", 12, false, 0, map[string]string{
			"solver": "gmres", "preconditioner": "jacobi", "scaling": "rowsum", "tol": "1e-8"}},
		{"trilinos-gmres-ilut-w2", "trilinos", 12, false, 2, map[string]string{
			"solver": "gmres", "preconditioner": "ilut", "tol": "1e-8"}},
		{"mg", "mg", 15, false, 0, map[string]string{"tol": "1e-8"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, 1, func(c *comm.Comm) {
				p := mesh.PaperProblem(tc.gridN)
				a, rhs, err := p.GenerateGlobal()
				if err != nil {
					t.Fatal(err)
				}
				if tc.symmetric {
					a = sparse.Laplace2D(tc.gridN, tc.gridN)
					rhs = make([]float64, p.N())
					for i := range rhs {
						rhs[i] = 1
					}
				}
				l, err := pmat.EvenLayout(c, p.N())
				if err != nil {
					t.Fatal(err)
				}
				s, err := OpenSession(tc.backend, c, SessionOptions{Params: tc.params, Workers: tc.workers})
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
				solve := func() {
					// Cold initial guess each time: warm-starting from the
					// exact solution would degenerate the iterative methods.
					for j := range x {
						x[j] = 0
					}
					if _, err := s.Solve(context.Background(), x); err != nil {
						t.Error(err)
					}
				}
				solve() // first solve: builds operator, solver, workspaces
				solve() // second: warms pools past the in-flight mark
				runtime.GC()
				if avg := testing.AllocsPerRun(5, solve); avg > steadyStateAllocBound {
					t.Errorf("%s: steady-state Solve allocates %.1f allocs/op, want ≤ %d",
						tc.name, avg, steadyStateAllocBound)
				}
			})
		})
	}
}

// BenchmarkSolveSteadyState measures the steady-state Session.Solve —
// operator, configured solver, workspaces, and comm pools all warm — for
// a direct and an iterative backend. scripts/benchguard.sh gates both
// ns/op and allocs/op for these cases.
func BenchmarkSolveSteadyState(b *testing.B) {
	for _, tc := range []struct {
		name    string
		backend string
		params  map[string]string
	}{
		{"superlu", "superlu", map[string]string{}},
		{"petsc-gmres", "petsc", map[string]string{
			"solver": "gmres", "preconditioner": "jacobi", "tol": "1e-8", "maxits": "500"}},
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
				s, err := OpenSession(tc.backend, c, SessionOptions{Params: tc.params})
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
				for i := 0; i < 2; i++ {
					for j := range x {
						x[j] = 0
					}
					if _, err := s.Solve(context.Background(), x); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
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
