package sparse

import (
	"math"
	"testing"
)

// fuzzCSR decodes raw fuzz bytes into a CSR via the bounded triplet
// decoder shared with FuzzCSRFromTriplets.
func fuzzCSR(data []byte) *CSR {
	rows, cols, ri, ci, v := decodeTriplets(data)
	coo := &COO{Rows: rows, Cols: cols, Row: ri, Col: ci, Val: v}
	return coo.ToCSR()
}

// fuzzBitsEqual reports the first bit mismatch between two products.
func fuzzBitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: y[%d] = %g (%x), want %g (%x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// FuzzSELLFromCSR drives the CSR→SELL-C-σ converter with arbitrary
// matrices and chunk heights: the result must validate, round-trip to
// the identical CSR, and reproduce the CSR product bit for bit
// through the bound kernel, y = A·x and y += A·x.
func FuzzSELLFromCSR(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 3, 0, 0, 1, 0, 0, 0, 1, 1, 2, 0, 0, 0, 2, 2, 3, 0, 0, 0}, uint8(2))
	f.Add([]byte{32, 32, 5, 9, 255, 1, 2, 3, 0, 9, 4, 4, 4, 4, 31, 31, 1, 0, 0, 128}, uint8(1))
	f.Add([]byte{16, 1, 0, 0, 1, 1, 1, 1, 15, 0, 2, 2, 2, 2}, uint8(33))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		a := fuzzCSR(data)
		s := SELLFromCSR(a, int(chunk)%40) // 0 selects the default
		if err := s.Validate(); err != nil {
			t.Fatalf("converted SELL fails validation: %v", err)
		}
		if !s.ToCSR().Equal(a) {
			t.Fatal("SELL -> CSR round trip changed the matrix")
		}
		x := make([]float64, a.Cols)
		for j := range x {
			x[j] = float64(j%5) - 2.25
		}
		want := make([]float64, a.Rows)
		a.MulVec(want, x)
		got := make([]float64, a.Rows)
		var k ParSpMV
		k.BindSELL(s, false, 1)
		k.Apply(nil, got, x)
		fuzzBitsEqual(t, "ParSpMV/SELL", got, want)

		a.MulVecAdd(want, x)
		k.BindSELL(s, true, 1)
		k.Apply(nil, got, x)
		fuzzBitsEqual(t, "ParSpMV/SELL add", got, want)
	})
}
