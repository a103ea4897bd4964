package sparse

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// requireBitwiseEqual fails unless a and b have identical structure and
// bit-identical values.
func requireBitwiseEqual(t *testing.T, label string, a, b *CSR) {
	t.Helper()
	if !a.Equal(b) {
		t.Fatalf("%s: matrices differ bitwise: %dx%d nnz=%d vs %dx%d nnz=%d",
			label, a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
	}
}

// TestMatrixMarketRoundTripGeneral pins the satellite property for
// general files: Read(Write(A)) == A exactly — indices and float bits —
// across structurally diverse operators.
func TestMatrixMarketRoundTripGeneral(t *testing.T) {
	cases := map[string]*CSR{
		"laplace2d":    Laplace2D(9, 7),
		"tridiag":      Tridiag(33, -1, 2, -1),
		"identity":     Identity(5),
		"diagdominant": RandomDiagDominant(64, 9, 42),
		"unsymmetric":  RandomUnsymmetric(48, 7, 7),
	}
	for seed := int64(1); seed <= 5; seed++ {
		cases["random-"+string(rune('a'+seed))] = RandomDiagDominant(32, 5, seed)
	}
	for name, a := range cases {
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a, MMGeneral); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if !strings.HasPrefix(buf.String(), "%%MatrixMarket matrix coordinate real general\n") {
			t.Fatalf("%s: bad banner: %q", name, buf.String()[:60])
		}
		got, err := ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		requireBitwiseEqual(t, name, a, got)
	}
}

// TestMatrixMarketRoundTripSymmetric pins the symmetric-storage half of
// the property: the writer stores exactly the lower triangle and the
// reader mirrors it back to the identical full operator.
func TestMatrixMarketRoundTripSymmetric(t *testing.T) {
	cases := map[string]*CSR{
		"laplace2d": Laplace2D(8, 8),
		"tridiag":   Tridiag(25, -1, 2, -1),
		"identity":  Identity(7),
	}
	for name, a := range cases {
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a, MMSymmetric); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		text := buf.String()
		if !strings.HasPrefix(text, "%%MatrixMarket matrix coordinate real symmetric\n") {
			t.Fatalf("%s: bad banner: %q", name, text[:60])
		}
		// The stored triangle must be strictly smaller than the full
		// operator whenever off-diagonal entries exist.
		lower := 0
		for i := 0; i < a.Rows; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if a.ColInd[k] <= i {
					lower++
				}
			}
		}
		if lines := strings.Count(text, "\n") - 2; lines != lower {
			t.Fatalf("%s: stored %d entries, want lower triangle %d", name, lines, lower)
		}
		got, err := ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		requireBitwiseEqual(t, name, a, got)
	}
}

// TestMatrixMarketWriteSymmetricRejectsUnsymmetric: asking for
// symmetric storage of a non-symmetric operator is a typed error, not
// silent lossy output.
func TestMatrixMarketWriteSymmetricRejectsUnsymmetric(t *testing.T) {
	var buf bytes.Buffer
	err := WriteMatrixMarket(&buf, RandomUnsymmetric(16, 4, 3), MMSymmetric)
	if !errors.Is(err, ErrMMSymmetry) {
		t.Fatalf("want ErrMMSymmetry, got %v", err)
	}
	err = WriteMatrixMarket(&buf, RandomDiagDominant(8, 3, 1).SubMatrix(0, 4), MMSymmetric)
	if !errors.Is(err, ErrMMSymmetry) {
		t.Fatalf("non-square: want ErrMMSymmetry, got %v", err)
	}
}

// TestMatrixMarketArrayFormats covers the dense array format, general
// and symmetric, including zero dropping.
func TestMatrixMarketArrayFormats(t *testing.T) {
	general := `%%MatrixMarket matrix array real general
% column-major 3x2
3 2
1.5
0
-2
4
0
6
`
	a, err := ReadMatrixMarket(strings.NewReader(general))
	if err != nil {
		t.Fatalf("general array: %v", err)
	}
	if a.Rows != 3 || a.Cols != 2 || a.NNZ() != 4 {
		t.Fatalf("general array: got %dx%d nnz=%d, want 3x2 nnz=4", a.Rows, a.Cols, a.NNZ())
	}
	for _, e := range []struct {
		i, j int
		v    float64
	}{{0, 0, 1.5}, {2, 0, -2}, {0, 1, 4}, {2, 1, 6}} {
		if got := a.At(e.i, e.j); math.Float64bits(got) != math.Float64bits(e.v) {
			t.Fatalf("general array: At(%d,%d)=%v, want %v", e.i, e.j, got, e.v)
		}
	}

	symmetric := `%%MatrixMarket matrix array real symmetric
2 2
4
1
3
`
	s, err := ReadMatrixMarket(strings.NewReader(symmetric))
	if err != nil {
		t.Fatalf("symmetric array: %v", err)
	}
	want, err := NewCSR(2, 2, []int{0, 2, 4}, []int{0, 1, 0, 1}, []float64{4, 1, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseEqual(t, "symmetric array", want, s)
}

// TestMatrixMarketIntegerAndFortranValues: integer fields parse to
// exact floats and Fortran D-exponents are accepted.
func TestMatrixMarketIntegerAndFortranValues(t *testing.T) {
	integer := `%%MatrixMarket matrix coordinate integer general
2 2 2
1 1 7
2 2 -3
`
	a, err := ReadMatrixMarket(strings.NewReader(integer))
	if err != nil {
		t.Fatalf("integer: %v", err)
	}
	if math.Float64bits(a.At(0, 0)) != math.Float64bits(7) || math.Float64bits(a.At(1, 1)) != math.Float64bits(-3) {
		t.Fatalf("integer: got %v / %v", a.At(0, 0), a.At(1, 1))
	}

	fortran := `%%MatrixMarket matrix coordinate real general
1 1 1
1 1 2.5D+01
`
	f, err := ReadMatrixMarket(strings.NewReader(fortran))
	if err != nil {
		t.Fatalf("fortran: %v", err)
	}
	if math.Float64bits(f.At(0, 0)) != math.Float64bits(25) {
		t.Fatalf("fortran: got %v, want 25", f.At(0, 0))
	}
}

// TestMatrixMarketTypedErrors pins each rejected construct to its
// typed error so service/CLI callers can rely on errors.Is.
func TestMatrixMarketTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  error
	}{
		{"empty", "", ErrMMHeader},
		{"no banner", "3 3 1\n1 1 4\n", ErrMMHeader},
		{"bad object", "%%MatrixMarket graph coordinate real general\n1 1 1\n1 1 1\n", ErrMMUnsupported},
		{"bad format", "%%MatrixMarket matrix sparse real general\n1 1 1\n1 1 1\n", ErrMMHeader},
		{"pattern", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n", ErrMMPattern},
		{"complex", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", ErrMMUnsupported},
		{"skew", "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 5\n", ErrMMUnsupported},
		{"hermitian", "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n1 1 5\n", ErrMMUnsupported},
		{"no size", "%%MatrixMarket matrix coordinate real general\n% only comments\n", ErrMMSize},
		{"short size", "%%MatrixMarket matrix coordinate real general\n3 3\n", ErrMMSize},
		{"negative size", "%%MatrixMarket matrix coordinate real general\n-1 3 0\n", ErrMMSize},
		{"overflow dims", "%%MatrixMarket matrix coordinate real general\n99999999999 3 1\n1 1 1\n", ErrMMSize},
		{"dim cap", "%%MatrixMarket matrix coordinate real general\n5000000 5000000 1\n1 1 1\n", ErrMMSize},
		{"dense cap", "%%MatrixMarket matrix array real general\n100000 100000\n", ErrMMSize},
		{"symmetric rect", "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1\n", ErrMMSymmetry},
		{"bad triplet", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", ErrMMEntry},
		{"bad value", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", ErrMMEntry},
		{"index range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5\n", ErrMMEntry},
		{"too few", "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 5\n", ErrMMEntry},
		{"too many", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 5\n2 2 5\n", ErrMMEntry},
		{"upper in symmetric", "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 5\n", ErrMMSymmetry},
		{"duplicate", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5\n1 1 3\n", ErrMMDuplicate},
		{"array count", "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n", ErrMMEntry},
	}
	for _, tc := range cases {
		_, err := ReadMatrixMarket(strings.NewReader(tc.input))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestMatrixMarketNonFinite: strconv.ParseFloat accepts "nan" and
// "inf", so every value path — coordinate, array, and the symmetric
// forms whose entries are mirrored — must reject them with the typed
// error, naming the line and the entry.
func TestMatrixMarketNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name, input, where string
	}{
		{"coordinate nan", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 nan\n", "line 4: entry (2,2)"},
		{"coordinate -inf", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 -Inf\n", "line 3: entry (1,2)"},
		{"coordinate symmetric", "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 4\n2 1 +infinity\n", "line 4: entry (2,1)"},
		{"array", "%%MatrixMarket matrix array real general\n2 2\n1\n2\nNaN\n4\n", "line 5: entry (1,2)"},
		{"array symmetric", "%%MatrixMarket matrix array real symmetric\n2 2\n4\ninf\n3\n", "line 4: entry (2,1)"},
	} {
		_, err := ReadMatrixMarket(strings.NewReader(tc.input))
		if !errors.Is(err, ErrMMNonFinite) {
			t.Errorf("%s: got %v, want ErrMMNonFinite", tc.name, err)
		} else if !strings.Contains(err.Error(), tc.where) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.where)
		}
	}
}

// FuzzReadMatrixMarket drives the parser with arbitrary input and, for
// anything that parses, checks the write/read round-trip invariant.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4\n2 2 -1.5e-3\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 2\n2 1 -1\n2 2 2\n3 3 2\n")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("%%MatrixMarket matrix array real symmetric\n2 2\n4\n1\n3\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 -7\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n99999999999999999999 1 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5\n1 1 3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0D+00\n")
	f.Add("% no banner\n2 2 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 nan\n")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		a, err := ReadMatrixMarket(strings.NewReader(input))
		if err != nil {
			return
		}
		if a.Rows > 512 || a.Cols > 512 || a.NNZ() > 1<<14 {
			return // keep the round-trip cheap
		}
		for _, v := range a.Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("read accepted a non-finite entry from %q", input)
			}
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a, MMGeneral); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		b, err := ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read own output: %v\n%s", err, buf.String())
		}
		if !a.Equal(b) {
			t.Fatalf("round-trip mismatch for input %q", input)
		}
	})
}

// BenchmarkReadMatrixMarket gates MM parse throughput (benchguard).
func BenchmarkReadMatrixMarket(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, Laplace2D(64, 64), MMGeneral); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMatrixMarket(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
