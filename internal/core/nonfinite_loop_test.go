package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/pmat"
)

// TestNonFiniteResidualStopsEveryKrylovLoop: a NaN residual compares
// false against every tolerance, so each loop needs an explicit test or
// it iterates to maxits and reports max_iterations. One NaN entry is
// staged through the library door with preconditioner=none, so nothing
// but the loop's own convergence test can catch it.
func TestNonFiniteResidualStopsEveryKrylovLoop(t *testing.T) {
	p := mesh.PaperProblem(9)
	solvers := map[string][]string{
		"petsc":    {"cg", "bicgstab", "gmres", "fgmres", "tfqmr", "richardson", "chebyshev"},
		"trilinos": {"cg", "gmres", "cgs", "bicgstab"},
	}
	for backend, names := range solvers {
		for _, solver := range names {
			for _, ranks := range []int{1, 2} {
				run(t, ranks, func(c *comm.Comm) {
					l, err := pmat.EvenLayout(c, p.N())
					if err != nil {
						t.Fatal(err)
					}
					a, b, err := p.GenerateLocal(l)
					if err != nil {
						t.Fatal(err)
					}
					if c.Rank() == 0 {
						a.Vals[a.RowPtr[20]+1] = math.NaN()
					}
					s, err := OpenSession(backend, c, SessionOptions{Params: map[string]string{
						"solver": solver, "preconditioner": "none", "tol": "1e-10", "maxits": "200",
					}})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					if err := s.Setup(l, a); err != nil {
						t.Fatal(err)
					}
					if err := s.SetupRHS(b, 1); err != nil {
						t.Fatal(err)
					}
					res, err := s.Solve(context.Background(), make([]float64, l.LocalN))
					if err == nil || res.Converged {
						t.Fatalf("%s/%s on %d ranks: solve through a NaN operator succeeded", backend, solver, ranks)
					}
					if res.Aborted || res.FailReason != FailBreakdown || res.Iterations > 1 {
						t.Errorf("%s/%s on %d ranks: %v after %d iterations (aborted=%v), want %v within 1",
							backend, solver, ranks, res.FailReason, res.Iterations, res.Aborted, FailBreakdown)
					}
				})
			}
		}
	}
}
