package core

import (
	"context"
	"fmt"
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

// TestSetupRHSRejectsNonFinite: a NaN or ±Inf right-hand side is refused
// where every backend stages it, at the port (ErrBadArg) and through the
// Session alike — superlu used to answer it with converged=true and a
// non-finite solution. Only the rank holding the bad value refuses; the
// session then stages a finite rhs and solves as if nothing had happened.
func TestSetupRHSRejectsNonFinite(t *testing.T) {
	p := mesh.PaperProblem(9)
	bad := map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)}
	for _, backend := range Names() {
		for name, v := range bad {
			for _, nRhs := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/nrhs=%d", backend, name, nRhs), func(t *testing.T) {
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
							s, err := OpenSession(backend, c, SessionOptions{Params: conformanceParams[backend]})
							if err != nil {
								t.Fatal(err)
							}
							defer s.Close()
							if err := s.Setup(l, a); err != nil {
								t.Fatal(err)
							}
							rhs := make([]float64, 0, nRhs*l.LocalN)
							for r := 0; r < nRhs; r++ {
								rhs = append(rhs, b...)
							}
							poisoned := append([]float64(nil), rhs...)
							holder := c.Rank() == ranks-1
							if holder {
								poisoned[len(poisoned)-1] = v // in the last block
							}
							code := s.Solver().SetupRHS(poisoned, l.LocalN, nRhs)
							err = s.SetupRHS(poisoned, nRhs)
							if holder && (code != ErrBadArg || err == nil || err.Error() != Check(ErrBadArg).Error()) {
								t.Errorf("%d ranks: port code %d, session error %v, want ErrBadArg from both", ranks, code, err)
							}
							if !holder && (code != OK || err != nil) {
								t.Errorf("%d ranks: the rank with a finite block was refused: code %d, %v", ranks, code, err)
							}
							if err := s.SetupRHS(rhs, nRhs); err != nil {
								t.Fatal(err)
							}
							x := make([]float64, nRhs*l.LocalN)
							if res, err := s.Solve(context.Background(), x); err != nil || !res.Converged {
								t.Fatalf("%d ranks: solve after the refusal: converged=%v, %v", ranks, res.Converged, err)
							}
							for i, xi := range x {
								if math.IsNaN(xi) || math.IsInf(xi, 0) {
									t.Fatalf("%d ranks: x[%d] = %v", ranks, i, xi)
								}
							}
						})
					}
				})
			}
		}
	}
}
