package sparse_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
	"repro/internal/sparse"
)

func randomCSR(t *testing.T, rng *rand.Rand, rows, cols int) *sparse.CSR {
	t.Helper()
	coo := sparse.NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for _, j := range rng.Perm(cols)[:1+rng.Intn(min(cols, 6))] {
			coo.Append(i, j, rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

// TestParSpMVBitwiseMatchesSerial pins the row-partition determinism
// argument: pooled SpMV equals the serial kernel bit for bit, for every
// worker count, in both the overwrite and accumulate forms.
func TestParSpMVBitwiseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(t, rng, 257, 101)
	x := make([]float64, 101)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, 257)
	a.MulVec(want, x)
	wantAdd := make([]float64, 257)
	for i := range wantAdd {
		wantAdd[i] = float64(i) * 0.125
	}
	a.MulVecAdd(wantAdd, x)

	for _, w := range []int{1, 2, 4, 7} {
		p := par.New(w)
		var k sparse.ParSpMV
		k.BindCSR(a, false)
		got := make([]float64, 257)
		k.Apply(p, got, x)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("w=%d: MulVec row %d: %x != %x", w, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		k.BindCSR(a, true)
		for i := range got {
			got[i] = float64(i) * 0.125
		}
		k.Apply(p, got, x)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(wantAdd[i]) {
				t.Fatalf("w=%d: MulVecAdd row %d differs", w, i)
			}
		}
		p.Close()
	}
}
