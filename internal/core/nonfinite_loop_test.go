package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

// TestNonFiniteResidualStopsEveryKrylovLoop: a NaN residual compares
// false against every tolerance, so each loop needs an explicit test or
// it iterates to maxits and reports max_iterations. The staging doors
// refuse a NaN entry (TestSetupMatrixRejectsNonFinite), so one is planted
// in the component's staged rows past them, with preconditioner=none:
// nothing but the loop's own convergence test can catch it.
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
					if c.Rank() == 0 {
						staged := stagedRows(s)
						staged.Vals[staged.RowPtr[20]+1] = math.NaN()
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

// stagedMatrix exposes a component's staged local rows to the tests
// that must plant a value no door accepts.
func (b *baseAdapter) stagedMatrix() *sparse.CSR { return b.localA }

// stagedRows is the session's component's staged local rows; the
// component builds its operator from them at the next Solve.
func stagedRows(s *Session) *sparse.CSR {
	return s.Solver().(interface{ stagedMatrix() *sparse.CSR }).stagedMatrix()
}

// TestSetupMatrixRejectsNonFinite: every SetupMatrix door refuses a NaN
// or +Inf entry with ErrBadArg before it replaces the staged matrix, so
// the system staged before still solves to the same bits, and so does a
// clean re-stage through the same door. Session.Setup surfaces the
// typed error on the rank holding the entry.
func TestSetupMatrixRejectsNonFinite(t *testing.T) {
	a := sparse.RandomDiagDominant(12, 3, 5)
	n := a.Rows
	b := sparse.RandomVector(n, 9)
	cooRows := make([]int, a.NNZ())
	var nodes []int
	var elems []float64 // one 2-node element per entry: a_ij at (0,1), or (0,0) when i == j
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			cooRows[k] = i
			j := a.ColInd[k]
			nodes = append(nodes, i, j)
			if i == j {
				elems = append(elems, a.Vals[k], 0, 0, 0)
			} else {
				elems = append(elems, 0, a.Vals[k], 0, 0)
			}
		}
	}
	msr, err := sparse.MSRFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]int, n+1)
	for i := range points {
		points[i] = i
	}
	vbr, err := sparse.VBRFromCSR(a, points, points)
	if err != nil {
		t.Fatal(err)
	}
	stageMSR := func(s *KSPComponent, v []float64) int {
		return s.SetupMatrix(v, msr.Ind, msr.Ind, MSR, len(msr.Ind), a.NNZ())
	}
	forms := []struct {
		name  string
		vals  []float64
		at    int // the entry the poisoned copy replaces
		stage func(s *KSPComponent, v []float64) int
	}{
		{"COO", a.Vals, 7, func(s *KSPComponent, v []float64) int {
			return s.SetupMatrixCOO(v, cooRows, a.ColInd, len(v))
		}},
		{"CSR", a.Vals, 7, func(s *KSPComponent, v []float64) int {
			return s.SetupMatrix(v, a.RowPtr, a.ColInd, CSR, n+1, len(v))
		}},
		{"MSR diagonal", msr.Val, 3, stageMSR},
		{"MSR off-diagonal", msr.Val, len(msr.Val) - 1, stageMSR},
		{"VBR", vbr.Val, len(vbr.Val) - 1, func(s *KSPComponent, v []float64) int {
			return s.SetupMatrixVBR(vbr.RPntr, vbr.CPntr, vbr.BPntr, vbr.BInd, vbr.Indx, v)
		}},
		{"FEM", elems, len(elems) - 3, func(s *KSPComponent, v []float64) int {
			return s.SetupMatrixFEM(2, nodes, v)
		}},
	}
	run(t, 1, func(c *comm.Comm) {
		for _, f := range forms {
			for _, bad := range []float64{math.NaN(), math.Inf(1)} {
				s := NewKSPComponent()
				mustOK(t, s.Initialize(c), "Initialize")
				mustOK(t, s.SetStartRow(0), "SetStartRow")
				mustOK(t, s.SetLocalRows(n), "SetLocalRows")
				mustOK(t, s.SetGlobalCols(n), "SetGlobalCols")
				mustOK(t, s.Set("tol", "1e-12"), "Set tol")
				solve := func() []float64 {
					mustOK(t, s.SetupRHS(b, n, 1), "SetupRHS")
					x := make([]float64, n)
					mustOK(t, s.Solve(x, make([]float64, StatusLen), n, StatusLen), "Solve")
					return x
				}
				mustOK(t, f.stage(s, f.vals), f.name)
				want := solve()
				poisoned := append([]float64(nil), f.vals...)
				poisoned[f.at] = bad
				if code := f.stage(s, poisoned); code != ErrBadArg {
					t.Errorf("%s with %v: code %d, want ErrBadArg", f.name, bad, code)
				}
				requireSameBits(t, f.name+" after the refusal", solve(), want)
				mustOK(t, f.stage(s, f.vals), f.name+" re-stage")
				requireSameBits(t, f.name+" re-staged", solve(), want)
			}
		}
	})
	p := mesh.PaperProblem(9)
	run(t, 2, func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, p.N())
		if err != nil {
			t.Fatal(err)
		}
		local, _, err := p.GenerateLocal(l)
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenSession("superlu", c, SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		holder := c.Rank() == 1
		if holder {
			local.Vals[0] = math.Inf(1)
		}
		err = s.Setup(l, local)
		if holder && (err == nil || err.Error() != Check(ErrBadArg).Error()) {
			t.Errorf("Session.Setup with +Inf: %v, want %v", err, Check(ErrBadArg))
		}
		if !holder && err != nil {
			t.Errorf("the rank with finite rows was refused: %v", err)
		}
	})
}

// refusingPort is a diagonal MatrixFree port, d_i = 2 + i mod 5 (its
// preconditioner product divides by it), that refuses the refuse product
// with ErrBadArg on the ranks where on is set.
type refusingPort struct {
	start  int
	refuse ID
	on     bool
}

func (o *refusingPort) MatMult(id ID, x, y []float64, n int) int {
	if o.on && id == o.refuse {
		return ErrBadArg
	}
	for i := 0; i < n; i++ {
		d := float64(2 + (o.start+i)%5)
		if id == IDPreconditioner {
			d = 1 / d
		}
		y[i] = d * x[i]
	}
	return OK
}

// TestRefusedMatrixFreeProductIsTypedFailure: a port that refuses a
// product, on every rank or on rank 0 alone, ends Solve in a typed
// failure on every rank, never a rank panic: the refused product is NaN,
// and the next reduction stops every rank's Krylov loop.
func TestRefusedMatrixFreeProductIsTypedFailure(t *testing.T) {
	const n = 40
	for _, tc := range []struct {
		backend string
		refuse  ID
	}{
		{"petsc", IDMatrix}, {"petsc", IDPreconditioner}, {"trilinos", IDMatrix},
	} {
		for _, ranks := range []int{1, 2} {
			for _, onlyRank0 := range []bool{false, true} {
				label := fmt.Sprintf("%s/id=%d/P=%d/rank0-only=%v", tc.backend, tc.refuse, ranks, onlyRank0)
				run(t, ranks, func(c *comm.Comm) {
					l, err := pmat.EvenLayout(c, n)
					if err != nil {
						t.Fatal(err)
					}
					params := map[string]string{"tol": "1e-10"}
					if tc.refuse == IDPreconditioner {
						params["matfree_pc"] = "true"
					}
					s, err := OpenSession(tc.backend, c, SessionOptions{Params: params})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					port := &refusingPort{start: l.Start, refuse: tc.refuse, on: !onlyRank0 || c.Rank() == 0}
					if err := s.SetupOperator(l, port); err != nil {
						t.Fatal(err)
					}
					b := make([]float64, l.LocalN)
					for i := range b {
						b[i] = 1
					}
					if err := s.SetupRHS(b, 1); err != nil {
						t.Fatal(err)
					}
					res, err := s.Solve(context.Background(), make([]float64, l.LocalN))
					if err == nil || res.Converged || res.Aborted || res.FailReason != FailBreakdown {
						t.Errorf("%s rank %d: %+v, %v; want a %v failure", label, c.Rank(), res, err, FailBreakdown)
					}
				})
			}
		}
	}
}
