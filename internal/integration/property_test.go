// Property / metamorphic suite (PR 5): invariants every solver backend
// must satisfy on the paper's §8[a] operator, independent of the
// backend's internals. A violation here means a backend (or the
// staging/partitioning machinery feeding it) is silently wrong in a way
// pointwise tests would not localize.
package integration_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

// propertyParams configure each backend for the property runs.
var propertyParams = map[string]map[string]string{
	"petsc":    {"solver": "bicgstab", "preconditioner": "ilu", "tol": "1e-11"},
	"trilinos": {"solver": "bicgstab", "preconditioner": "domdecomp", "tol": "1e-11"},
	"superlu":  {},
	"mg":       {"tol": "1e-11"},
}

const propertyGridN = 9 // odd so the mg component participates

// sessionSolve runs one Open→Setup→Solve against the given layout and
// system and returns the gathered global solution.
func sessionSolve(t *testing.T, c *comm.Comm, backend string, params map[string]string,
	l *pmat.Layout, a *sparse.CSR, b []float64) []float64 {
	t.Helper()
	s, err := core.OpenSession(backend, c, core.SessionOptions{Params: params})
	if err != nil {
		t.Fatalf("%s: open: %v", backend, err)
	}
	defer s.Close()
	if err := s.Setup(l, a); err != nil {
		t.Fatalf("%s: setup: %v", backend, err)
	}
	if err := s.SetupRHS(b, 1); err != nil {
		t.Fatalf("%s: rhs: %v", backend, err)
	}
	x := make([]float64, l.LocalN)
	res, err := s.Solve(context.Background(), x)
	if err != nil {
		t.Fatalf("%s: solve: %v", backend, err)
	}
	if !res.Converged {
		t.Fatalf("%s: did not converge (residual %g)", backend, res.Residual)
	}
	return pmat.AllGather(l, x)
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestPropertyBackendAgreement: every registered backend must produce
// the same solution of the §8 operator — the paper's plug-compatibility
// claim stated as a property over the registry.
func TestPropertyBackendAgreement(t *testing.T) {
	p := mesh.PaperProblem(propertyGridN)
	names := core.Names()
	solutions := make(map[string][]float64)
	for _, name := range names {
		params, ok := propertyParams[name]
		if !ok {
			t.Fatalf("backend %q has no property parameters; add it to propertyParams", name)
		}
		run(t, 3, func(c *comm.Comm) {
			l, err := pmat.EvenLayout(c, p.N())
			if err != nil {
				t.Fatal(err)
			}
			a, b, err := p.GenerateLocal(l)
			if err != nil {
				t.Fatal(err)
			}
			x := sessionSolve(t, c, name, params, l, a, b)
			if c.Rank() == 0 {
				solutions[name] = x
			}
		})
	}
	ref := solutions[names[0]]
	for _, name := range names[1:] {
		if d := maxAbsDiff(ref, solutions[name]); d > 1e-6 {
			t.Errorf("backends %s and %s disagree: max |Δx| = %g", names[0], name, d)
		}
	}
}

// TestPropertyScalingInvariance: solving (αA, αb) must give the same x
// as (A, b). α is a power of two so the scaling itself is exact in
// floating point; any drift beyond solver tolerance is a staging or
// backend bug.
func TestPropertyScalingInvariance(t *testing.T) {
	const alpha = 64.0 // 2^6: exact scaling
	p := mesh.PaperProblem(propertyGridN)
	for _, name := range core.Names() {
		params := propertyParams[name]
		run(t, 3, func(c *comm.Comm) {
			l, err := pmat.EvenLayout(c, p.N())
			if err != nil {
				t.Fatal(err)
			}
			a, b, err := p.GenerateLocal(l)
			if err != nil {
				t.Fatal(err)
			}
			x1 := sessionSolve(t, c, name, params, l, a, b)

			sa := a.Clone()
			sparse.Scale(alpha, sa.Vals)
			sb := append([]float64(nil), b...)
			sparse.Scale(alpha, sb)
			x2 := sessionSolve(t, c, name, params, l, sa, sb)

			if c.Rank() == 0 {
				if d := maxAbsDiff(x1, x2); d > 1e-6 {
					t.Errorf("%s: scaling (αA, αb) moved the solution by %g", name, d)
				}
			}
		})
	}
}

// TestPropertyPartitionInvariance: the solution must not depend on how
// block rows are distributed over ranks. Solve under the even layout
// and under a deliberately skewed one, gather both, compare.
func TestPropertyPartitionInvariance(t *testing.T) {
	p := mesh.PaperProblem(propertyGridN)
	n := p.N()
	for _, name := range core.Names() {
		params := propertyParams[name]
		var even, skewed []float64
		run(t, 3, func(c *comm.Comm) {
			l, err := pmat.EvenLayout(c, n)
			if err != nil {
				t.Fatal(err)
			}
			a, b, err := p.GenerateLocal(l)
			if err != nil {
				t.Fatal(err)
			}
			x := sessionSolve(t, c, name, params, l, a, b)
			if c.Rank() == 0 {
				even = x
			}
		})
		run(t, 3, func(c *comm.Comm) {
			// Skewed ownership: rank 0 holds well over half the rows.
			locals := []int{n - n/3 - n/5, n / 3, n / 5}
			l, err := pmat.NewLayout(c, locals[c.Rank()])
			if err != nil {
				t.Fatal(err)
			}
			a, b, err := p.GenerateLocal(l)
			if err != nil {
				t.Fatal(err)
			}
			x := sessionSolve(t, c, name, params, l, a, b)
			if c.Rank() == 0 {
				skewed = x
			}
		})
		if d := maxAbsDiff(even, skewed); d > 1e-6 {
			t.Errorf("%s: repartitioning block rows moved the solution by %g", name, d)
		}
	}
}

// TestPropertyPartitionRowsConformsToEvenLayout pins the shared
// partitioner to the layout the runtime actually builds: the mesh-level
// PartitionRows boundaries must be exactly EvenLayout's.
func TestPropertyPartitionRowsConformsToEvenLayout(t *testing.T) {
	const n = 83
	for _, procs := range []int{1, 2, 3, 4} {
		starts, err := mesh.PartitionRows(n, procs)
		if err != nil {
			t.Fatal(err)
		}
		run(t, procs, func(c *comm.Comm) {
			l, err := pmat.EvenLayout(c, n)
			if err != nil {
				t.Fatal(err)
			}
			r := c.Rank()
			if starts[r] != l.Start || starts[r+1]-starts[r] != l.LocalN {
				t.Errorf("procs=%d rank %d: PartitionRows gives [%d,%d), EvenLayout gives [%d,%d)",
					procs, r, starts[r], starts[r+1], l.Start, l.Start+l.LocalN)
			}
		})
	}
}
