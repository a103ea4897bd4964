package aztec

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/sparse"
)

// TestILUTSolveMatchesTwoLoopReference: ILUT.Solve — par.RowTri.Solve
// over the two row-oriented factors — against the two plain loops over
// the same seven arrays, on the benchmark operators (stencil-100, 199
// levels; FEM-16, 43), serially and on pools of 2, 4 and 7 workers,
// with z aliasing r and not.
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
		for _, workers := range []int{1, 2, 4, 7} {
			pool := par.New(workers)
			f.EnableLevels(pool)
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
						t.Fatalf("%s workers=%d aliased=%v: z[%d] = %x, reference %x", name, workers, aliased, i, z[i], want[i])
					}
				}
			}
			pool.Close()
		}
	}
}
