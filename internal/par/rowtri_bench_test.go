package par_test

import (
	"fmt"
	"testing"

	"repro/internal/par"
)

// strideFactor is the factor pair on n rows in which row i depends on
// rows i−k and i−2k (forward) and i+k and i+2k (backward), stored
// combined: every level of either sweep is k rows wide, so k alone sets
// how much work one dispatch per level has to pay for.
func strideFactor(n, k int) *par.RowTri {
	rowPtr := make([]int, 1, n+1)
	var cols []int
	var vals []float64
	for i := 0; i < n; i++ {
		for _, j := range []int{i - 2*k, i - k, i, i + k, i + 2*k} {
			if j < 0 || j >= n {
				continue
			}
			v := -0.25
			if j == i {
				v = 4
			}
			cols, vals = append(cols, j), append(vals, v)
		}
		rowPtr = append(rowPtr, len(cols))
	}
	tri, _ := par.SplitAtDiagonal(rowPtr, cols, vals)
	return tri
}

// BenchmarkRowTriStrideWorkers prices the level-scheduled sweep against
// the serial one as the level width k grows (n = 40,000; k = n/2 leaves
// two levels per sweep). It is the record behind the rule that no solver
// hands a pool to a triangular sweep: w=2 loses at every width the
// repository's factors have (43–199 levels of median width 50–66).
//
//	go test ./internal/par -run '^$' -bench RowTriStrideWorkers
func BenchmarkRowTriStrideWorkers(b *testing.B) {
	const n = 40_000
	for _, k := range []int{64, 1024, 4096, n / 2} {
		tri := strideFactor(n, k)
		z, r := make([]float64, n), make([]float64, n)
		for i := range r {
			r[i] = 1 + float64(i%7)/7
		}
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("k=%d/w=%d", k, w), func(b *testing.B) {
				var pool *par.Pool
				if w > 1 {
					pool = par.New(w)
					defer pool.Close()
					tri.Schedule(pool)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tri.Solve(pool, z, r)
				}
			})
		}
	}
}
