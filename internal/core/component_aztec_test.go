package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/aztec"
	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/pmat"
)

// TestTrilinosNonFiniteOperatorTypedFailure: a NaN or Inf operator entry
// reaching the ILUT set-up ends in a typed, non-aborting failure and
// leaves no NaN in the solution — not a "converged" solve through a NaN
// preconditioner. A zero row is typed singular the same way. The doors
// refuse a non-finite entry, so the poison is planted in the staged rows
// past them.
func TestTrilinosNonFiniteOperatorTypedFailure(t *testing.T) {
	p := mesh.PaperProblem(9)
	cases := []struct {
		name   string
		poison func(vals []float64, lo, hi int)
		want   FailReason
	}{
		{"nan", func(v []float64, lo, _ int) { v[lo+1] = math.NaN() }, FailBreakdown},
		{"inf", func(v []float64, lo, _ int) { v[lo+1] = math.Inf(-1) }, FailBreakdown},
		{"zero-row", func(v []float64, lo, hi int) {
			for k := lo; k < hi; k++ {
				v[k] = 0
			}
		}, FailSingular},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run(t, 1, func(c *comm.Comm) {
				l, err := pmat.EvenLayout(c, p.N())
				if err != nil {
					t.Fatal(err)
				}
				a, b, err := p.GenerateLocal(l)
				if err != nil {
					t.Fatal(err)
				}
				s, err := OpenSession("trilinos", c, SessionOptions{Params: map[string]string{
					"solver": "cg", "tol": "1e-10", "maxits": "200",
				}})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if err := s.Setup(l, a); err != nil {
					t.Fatal(err)
				}
				staged := stagedRows(s)
				tc.poison(staged.Vals, staged.RowPtr[40], staged.RowPtr[41])
				if err := s.SetupRHS(b, 1); err != nil {
					t.Fatal(err)
				}
				x := make([]float64, l.LocalN)
				res, err := s.Solve(context.Background(), x)
				if err == nil || res.Converged {
					t.Fatalf("solve through a poisoned operator succeeded (converged=%v)", res.Converged)
				}
				if res.Aborted || res.FailReason != tc.want {
					t.Errorf("failure typed %v (aborted=%v), want %v", res.FailReason, res.Aborted, tc.want)
				}
				for i, v := range x {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("x[%d] = %g after a failed solve", i, v)
					}
				}
			})
		})
	}
}

func TestClassifySolveErrorSentinels(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want FailReason
	}{
		{fmt.Errorf("aztec: AZDomDecomp: %w", fmt.Errorf("row 3: %w", aztec.ErrILUTZeroRow)), FailSingular},
		{fmt.Errorf("row 3: %w", aztec.ErrILUTZeroPivot), FailSingular},
		{fmt.Errorf("row 3: %w", aztec.ErrILUTNonFinite), FailBreakdown},
		{fmt.Errorf("slu: matrix is singular"), FailSingular},
		{fmt.Errorf("something else"), FailBreakdown},
	} {
		if got := classifySolveError(tc.err); got != tc.want {
			t.Errorf("classifySolveError(%q) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
