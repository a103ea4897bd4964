package aztec

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

var (
	oracleDrops = []float64{0, 1e-3, 1e-2, 0.05}
	oracleFills = []float64{1, 2, 3, 10}
)

// sameILUT compares all seven factor arrays bit for bit.
func sameILUT(got, want *ILUT) error {
	ints := func(name string, g, w []int) error {
		if len(g) != len(w) {
			return fmt.Errorf("%s: length %d, reference has %d", name, len(g), len(w))
		}
		for k := range w {
			if g[k] != w[k] {
				return fmt.Errorf("%s[%d] = %d, reference has %d", name, k, g[k], w[k])
			}
		}
		return nil
	}
	floats := func(name string, g, w []float64) error {
		if len(g) != len(w) {
			return fmt.Errorf("%s: length %d, reference has %d", name, len(g), len(w))
		}
		for k := range w {
			if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
				return fmt.Errorf("%s[%d] = %x, reference has %x", name, k, g[k], w[k])
			}
		}
		return nil
	}
	return errors.Join(
		ints("lPtr", got.lPtr, want.lPtr), ints("lCols", got.lCols, want.lCols), floats("lVals", got.lVals, want.lVals),
		ints("uPtr", got.uPtr, want.uPtr), ints("uCols", got.uCols, want.uCols), floats("uVals", got.uVals, want.uVals),
		floats("uDiag", got.uDiag, want.uDiag))
}

// checkILUTMatchesReference asserts that NewILUT and the pre-rewrite
// kernel agree on success and, when they succeed, on every array.
func checkILUTMatchesReference(t testing.TB, name string, a *sparse.CSR, drop, fill float64) {
	t.Helper()
	got, err := NewILUT(a, drop, fill)
	want, refErr := refNewILUT(a, drop, fill)
	if errors.Is(err, ErrILUTNonFinite) {
		// The reference has no such check: it carries the overflow on.
		if refErr == nil && allFinite(want.uDiag) {
			t.Fatalf("%s drop=%g fill=%g: %v, but the reference factor is finite", name, drop, fill, err)
		}
		return
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s drop=%g fill=%g: error %v, reference %v", name, drop, fill, err, refErr)
	}
	if err != nil {
		return
	}
	if err := sameILUT(got, want); err != nil {
		t.Fatalf("%s drop=%g fill=%g:\n%v", name, drop, fill, err)
	}
}

func allFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func checkILUTGrid(t *testing.T, name string, a *sparse.CSR) {
	t.Helper()
	for _, drop := range oracleDrops {
		for _, fill := range oracleFills {
			checkILUTMatchesReference(t, name, a, drop, fill)
		}
	}
}

func TestILUTMatchesReferenceFEM(t *testing.T) {
	sizes := []int{4, 6, 10, 16}
	if testing.Short() {
		sizes = sizes[:3]
	}
	for _, n := range sizes {
		for _, seed := range []int64{1, 7, 42} {
			a, _, err := mesh.DefaultFEMProblem(n, seed).GenerateGlobal()
			if err != nil {
				t.Fatal(err)
			}
			checkILUTGrid(t, fmt.Sprintf("fem-%d/seed-%d", n, seed), a)
		}
	}
}

func TestILUTMatchesReferenceStencil(t *testing.T) {
	sizes := []int{9, 32, 100}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		a, _, err := mesh.PaperProblem(n).GenerateGlobal()
		if err != nil {
			t.Fatal(err)
		}
		checkILUTGrid(t, fmt.Sprintf("stencil-%d", n), a)
	}
}

func TestILUTMatchesReferenceCorpus(t *testing.T) {
	files, err := filepath.Glob("../../testdata/corpus/*.mtx")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus matrices found (%v)", err)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sparse.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		checkILUTGrid(t, filepath.Base(path), a)
	}
}

func TestILUTMatchesReferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		n := 20 + int(seed%7)*15
		checkILUTGrid(t, fmt.Sprintf("random-%d", seed), sparse.RandomDiagDominant(n, 3+int(seed%5), seed))
	}
}

// denseCSR builds a CSR from a dense row-major table, skipping zeros.
func denseCSR(rows [][]float64) *sparse.CSR {
	coo := sparse.NewCOO(len(rows), len(rows))
	for i, r := range rows {
		for j, v := range r {
			if v != 0 {
				coo.Append(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}

func TestILUTBoundaryTieKeepsSmallerColumn(t *testing.T) {
	// Small integers whose magnitudes tie across the cut. Row 0 has 3
	// entries and row 5 has 4, so fill = 1/3 gives every half a budget
	// of 1. Row 5 has no entry in column 0 and rows 1..3 are identity
	// rows, so no elimination step changes its lower part (−2, 2, 2).
	a := denseCSR([][]float64{
		{1, 0, 0, 0, 2, -2},
		{0, 1, 0, 0, 0, 0},
		{0, 0, 1, 0, 0, 0},
		{0, 0, 0, 1, 0, 0},
		{0, 0, 0, 0, 4, 0},
		{0, -2, 2, 2, 0, 8},
	})
	checkILUTMatchesReference(t, "tie", a, 0, 1.0/3)
	f, err := NewILUT(a, 0, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.uCols[f.uPtr[0]:f.uPtr[1]]; len(got) != 1 || got[0] != 4 {
		t.Errorf("row 0 upper (2@4, −2@5) kept columns %v, want [4]", got)
	}
	if got := f.lCols[f.lPtr[5]:f.lPtr[6]]; len(got) != 1 || got[0] != 1 {
		t.Errorf("row 5 lower (−2@1, 2@2, 2@3) kept columns %v, want [1]", got)
	}
	// fill = 2/3 gives row 5 a budget of 2: two of the three tied stay.
	checkILUTMatchesReference(t, "tie", a, 0, 2.0/3)
	f, err = NewILUT(a, 0, 2.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.lCols[f.lPtr[5]:f.lPtr[6]]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("row 5 lower kept columns %v, want [1 2]", got)
	}
}

func TestILUTShapedCases(t *testing.T) {
	t.Run("n=1", func(t *testing.T) {
		checkILUTGrid(t, "n=1", denseCSR([][]float64{{3}}))
	})
	t.Run("all candidates under tau", func(t *testing.T) {
		// Off-diagonals of 1e-3 against a row norm ≈ 1: drop 0.05 puts
		// every one of them under tau, leaving a diagonal factor.
		a := denseCSR([][]float64{
			{1, 1e-3, 1e-3},
			{1e-3, 1, 1e-3},
			{1e-3, 1e-3, 1},
		})
		checkILUTMatchesReference(t, "under-tau", a, 0.05, 1)
		f, err := NewILUT(a, 0.05, 1)
		if err != nil {
			t.Fatal(err)
		}
		if f.NNZ() != 3 {
			t.Errorf("factor holds %d entries, want the 3 diagonals", f.NNZ())
		}
	})
	t.Run("zero pivot takes tau", func(t *testing.T) {
		// Row 1 eliminates to an exact zero diagonal: 2 − (2/1)·1.
		a := denseCSR([][]float64{
			{1, 1, 0},
			{2, 2, 1},
			{0, 1, 3},
		})
		checkILUTMatchesReference(t, "fixup", a, 1e-3, 2)
		f, err := NewILUT(a, 1e-3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1e-3 * 3; f.uDiag[1] != want {
			t.Errorf("uDiag[1] = %g, want tau = %g", f.uDiag[1], want)
		}
		if _, err := NewILUT(a, 0, 2); !errors.Is(err, ErrILUTZeroPivot) {
			t.Errorf("zero pivot with zero drop: got %v, want ErrILUTZeroPivot", err)
		}
	})
	t.Run("fill so large nothing is cut", func(t *testing.T) {
		a := sparse.Laplace2D(9, 9)
		checkILUTMatchesReference(t, "nocut", a, 0, 1e6)
		f, err := NewILUT(a, 0, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		// A complete LU of the 9×9 grid Laplacian fills its band.
		if f.NNZ() <= 2*a.NNZ() {
			t.Errorf("uncut factor has %d entries for %d in A", f.NNZ(), a.NNZ())
		}
	})
}

func TestILUTRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := sparse.Laplace2D(4, 4)
		a.Vals[a.RowPtr[5]+1] = bad
		f, err := NewILUT(a, 0, 1)
		if !errors.Is(err, ErrILUTNonFinite) || f != nil {
			t.Errorf("entry %g: got (%v, %v), want ErrILUTNonFinite", bad, f, err)
		}
	}
	// Finite entries whose elimination overflows: 1e200/1e-200 → +Inf.
	a := denseCSR([][]float64{
		{1e-200, 1e200},
		{1e200, 1},
	})
	if _, err := NewILUT(a, 0, 1); !errors.Is(err, ErrILUTNonFinite) {
		t.Errorf("overflowing pivot: got %v, want ErrILUTNonFinite", err)
	}
	zeroRow := sparse.NewCOO(2, 2)
	zeroRow.Append(0, 0, 1)
	if _, err := NewILUT(zeroRow.ToCSR(), 0, 1); !errors.Is(err, ErrILUTZeroRow) {
		t.Errorf("zero row: got %v, want ErrILUTZeroRow", err)
	}
}

// fuzzILUTMatrix derives an n×n matrix (n ≤ 48) from fuzz bytes: byte 0
// sizes it, then (row, col, level) triples place entries whose values
// come from a seven-level table, so equal magnitudes — and with them ties
// across the keep-largest cut — are the common case. Every row gets a
// diagonal so that most inputs factor.
func fuzzILUTMatrix(data []byte) *sparse.CSR {
	levels := [...]float64{-2, -1, -0.5, 0.5, 1, 2, 4}
	n := 1 + int(data[0])%48
	seen := make(map[[2]int]bool)
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Append(i, i, 4)
		seen[[2]int{i, i}] = true
	}
	for k := 1; k+2 < len(data); k += 3 {
		e := [2]int{int(data[k]) % n, int(data[k+1]) % n}
		if seen[e] {
			continue
		}
		seen[e] = true
		coo.Append(e[0], e[1], levels[int(data[k+2])%len(levels)])
	}
	return coo.ToCSR()
}

// FuzzILUTMatchesReference compares the kernel with the reference on
// tie-heavy matrices across the drop × fill grid the fuzz bytes select.
func FuzzILUTMatchesReference(f *testing.F) {
	f.Add([]byte{0}, uint8(0), uint8(0))
	f.Add([]byte{5, 5, 0, 0, 5, 1, 5, 5, 2, 0, 5, 3, 3, 0, 4, 0, 4, 5, 0, 5, 0}, uint8(0), uint8(0))
	f.Add([]byte{7, 1, 0, 1, 2, 1, 1, 3, 2, 1, 4, 3, 1, 5, 4, 1, 6, 5, 1, 7, 6, 1, 0, 7, 1}, uint8(1), uint8(1))
	f.Add([]byte{47, 0, 46, 5, 46, 0, 5, 1, 45, 4, 45, 1, 4, 23, 24, 3, 24, 23, 3}, uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, dropSel, fillSel uint8) {
		if len(data) == 0 {
			return
		}
		drop := oracleDrops[int(dropSel)%len(oracleDrops)]
		// 1/3 and 2/3 cut rows down to one or two entries per half,
		// which is where a tie straddles the cut most often.
		fills := append([]float64{1.0 / 3, 2.0 / 3}, oracleFills...)
		checkILUTMatchesReference(t, "fuzz", fuzzILUTMatrix(data), drop, fills[int(fillSel)%len(fills)])
	})
}
