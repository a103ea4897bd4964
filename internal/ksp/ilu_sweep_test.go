package ksp

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/sparse"
)

// sweepOperators are the two benchmark operators whose level structure
// the pooled sweeps run on: stencil-100 (199 levels) and FEM-16 (43).
func sweepOperators(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	st, _, err := mesh.PaperProblem(100).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	fem, _, err := mesh.DefaultFEMProblem(16, 7).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*sparse.CSR{"stencil-100": st, "fem-16": fem}
}

// TestILU0SolveMatchesTwoLoopReference: ILU0.Solve — par.RowTri.Solve
// over the combined storage — against the two plain loops over the same
// storage, serially and on pools of 2, 4 and 7 workers, with z aliasing
// r and not.
func TestILU0SolveMatchesTwoLoopReference(t *testing.T) {
	for name, a := range sweepOperators(t) {
		f, err := NewILU0(a)
		if err != nil {
			t.Fatal(err)
		}
		n := a.Rows
		lu := f.a
		r := sparse.RandomVector(n, 17)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			s := r[i]
			k := lu.RowPtr[i]
			for ; lu.ColInd[k] < i; k++ {
				s -= lu.Vals[k] * want[lu.ColInd[k]]
			}
			want[i] = s
		}
		for i := n - 1; i >= 0; i-- {
			s := want[i]
			k := lu.RowPtr[i+1] - 1
			for ; lu.ColInd[k] > i; k-- {
			}
			d := k
			for k = d + 1; k < lu.RowPtr[i+1]; k++ {
				s -= lu.Vals[k] * want[lu.ColInd[k]]
			}
			want[i] = s / lu.Vals[d]
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
