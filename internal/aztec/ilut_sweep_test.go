package aztec

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/sparse"
)

// TestILUTSolveMatchesTwoLoopReference: ILUT.Solve — par.RowTri.Solve
// over the two row-oriented factors — against the two plain loops over
// the same seven arrays, on the benchmark operators (stencil-100 and
// FEM-16), with z aliasing r and not.
func TestILUTSolveMatchesTwoLoopReference(t *testing.T) {
	st, _, err := mesh.PaperProblem(100).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	fem, _, err := mesh.DefaultFEMProblem(16, 7).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	for name, a := range map[string]*sparse.CSR{"stencil-100": st, "fem-16": fem} {
		f, err := NewILUT(a, params[AZDrop], math.Max(params[AZIlutFill], 1))
		if err != nil {
			t.Fatal(err)
		}
		n := a.Rows
		r := sparse.RandomVector(n, 17)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			s := r[i]
			for p := f.lPtr[i]; p < f.lPtr[i+1]; p++ {
				s -= f.lVals[p] * want[f.lCols[p]]
			}
			want[i] = s
		}
		for i := n - 1; i >= 0; i-- {
			s := want[i]
			for p := f.uPtr[i]; p < f.uPtr[i+1]; p++ {
				s -= f.uVals[p] * want[f.uCols[p]]
			}
			want[i] = s / f.uDiag[i]
		}
		for _, aliased := range []bool{false, true} {
			z := make([]float64, n)
			src := r
			if aliased {
				copy(z, r)
				src = z
			}
			f.Solve(z, src)
			for i := range z {
				if math.Float64bits(z[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s aliased=%v: z[%d] = %x, reference %x", name, aliased, i, z[i], want[i])
				}
			}
		}
	}
}

// TestPooledILUTApplyDispatchesNothing: a Solver with a 2-worker pool
// attached keeps its domain-decomposition ILUT sweeps serial, so one
// preconditioner apply makes no pool dispatch. A level-scheduled sweep
// would make one per level.
func TestPooledILUTApplyDispatchesNothing(t *testing.T) {
	global := sparse.Laplace2D(50, 50)
	run(t, 1, func(c *comm.Comm) {
		s := NewSolver(c)
		s.SetUserMatrix(buildCrs(c, global))
		s.Options()[AZSolver] = AZGMRES
		s.Options()[AZPrecond] = AZDomDecomp
		pool := par.New(2)
		defer pool.Close()
		s.SetPool(pool)
		b := sparse.RandomVector(global.Rows, 5)
		x := make([]float64, global.Rows)
		if err := s.Solve(x, b); err != nil {
			t.Fatal(err)
		}
		s.SetPool(pool) // as the component does before every solve
		before, _ := pool.Stats()
		s.prec.apply(x, b)
		if after, _ := pool.Stats(); after != before {
			t.Errorf("one ILUT apply made %d pool dispatches, want 0", after-before)
		}
	})
}
