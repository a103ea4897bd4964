package par_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// randomFactor builds a random unit-lower/upper pair on n rows, stored
// combined (one cols/vals array per row: lower part, diagonal slot,
// upper part — the ILU(0) shape).
func randomFactor(n int, rng *rand.Rand) (rowPtr, diagPos, cols []int, vals []float64) {
	rowPtr = make([]int, n+1)
	diagPos = make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			near := j >= i-3 && j <= i+3
			if j != i && !near && rng.Intn(40) != 0 {
				continue
			}
			if j == i {
				diagPos[i] = len(cols)
				vals = append(vals, 4+rng.Float64())
			} else {
				vals = append(vals, rng.Float64()-0.5)
			}
			cols = append(cols, j)
		}
		rowPtr[i+1] = len(cols)
	}
	return rowPtr, diagPos, cols, vals
}

// TestRowTriSolveMatchesTwoLoops: one factor described both ways — both
// halves as ranges of one combined array, and as two separate CSRs —
// solved serially and on pools of 2, 4 and 7 workers, with z aliasing r
// and not, against the two plain loops.
func TestRowTriSolveMatchesTwoLoops(t *testing.T) {
	const n = 600
	rng := rand.New(rand.NewSource(5))
	rowPtr, diagPos, cols, vals := randomFactor(n, rng)

	r := make([]float64, n)
	for i := range r {
		r[i] = rng.Float64() - 0.5
	}
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		s := r[i]
		for k := rowPtr[i]; k < diagPos[i]; k++ {
			s -= vals[k] * want[cols[k]]
		}
		want[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := want[i]
		for k := diagPos[i] + 1; k < rowPtr[i+1]; k++ {
			s -= vals[k] * want[cols[k]]
		}
		want[i] = s / vals[diagPos[i]]
	}

	uLo, diag := make([]int, n), make([]float64, n)
	lPtr, uPtr := make([]int, n+1), make([]int, n+1)
	var lCols, uCols []int
	var lVals, uVals []float64
	for i := 0; i < n; i++ {
		d := diagPos[i]
		uLo[i], diag[i] = d+1, vals[d]
		lCols, lVals = append(lCols, cols[rowPtr[i]:d]...), append(lVals, vals[rowPtr[i]:d]...)
		uCols, uVals = append(uCols, cols[d+1:rowPtr[i+1]]...), append(uVals, vals[d+1:rowPtr[i+1]]...)
		lPtr[i+1], uPtr[i+1] = len(lCols), len(uCols)
	}
	shapes := map[string]*par.RowTri{
		"combined": {
			LLo: rowPtr[:n], LHi: diagPos, LCols: cols, LVals: vals,
			ULo: uLo, UHi: rowPtr[1:], UCols: cols, UVals: vals, Diag: diag,
		},
		"split": {
			LLo: lPtr[:n], LHi: lPtr[1:], LCols: lCols, LVals: lVals,
			ULo: uPtr[:n], UHi: uPtr[1:], UCols: uCols, UVals: uVals, Diag: diag,
		},
	}
	for name, tri := range shapes {
		for _, workers := range []int{0, 1, 2, 4, 7} {
			var pool *par.Pool // workers 0: no pool at all
			if workers > 0 {
				pool = par.New(workers)
			}
			for _, aliased := range []bool{false, true} {
				z := make([]float64, n)
				src := r
				if aliased {
					copy(z, r)
					src = z
				}
				tri.Solve(pool, z, src)
				for i := range z {
					if math.Float64bits(z[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s workers=%d aliased=%v: z[%d] = %x, two loops give %x",
							name, workers, aliased, i, z[i], want[i])
					}
				}
			}
			pool.Close()
		}
	}
}

// TestRowTriSolveSteadyStateAllocs: after the level sets exist a pooled
// solve allocates nothing.
func TestRowTriSolveSteadyStateAllocs(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(9))
	rowPtr, diagPos, cols, vals := randomFactor(n, rng)
	uLo, diag := make([]int, n), make([]float64, n)
	for i, d := range diagPos {
		uLo[i], diag[i] = d+1, vals[d]
	}
	tri := &par.RowTri{
		LLo: rowPtr[:n], LHi: diagPos, LCols: cols, LVals: vals,
		ULo: uLo, UHi: rowPtr[1:], UCols: cols, UVals: vals, Diag: diag,
	}
	pool := par.New(2)
	defer pool.Close()
	z, r := make([]float64, n), make([]float64, n)
	tri.Schedule(pool)
	if avg := testing.AllocsPerRun(20, func() { tri.Solve(pool, z, r) }); avg != 0 {
		t.Errorf("pooled RowTri.Solve allocates %.2f allocs/op, want 0", avg)
	}
}
