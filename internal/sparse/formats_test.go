package sparse

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestMSRLayout(t *testing.T) {
	// A = [4 -1 0; -1 4 -1; 0 -1 4]
	a := Tridiag(3, -1, 4, -1)
	m, err := MSRFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 3 {
		t.Fatalf("N = %d", m.N)
	}
	// Diagonal stored in Val[0:3].
	for i := 0; i < 3; i++ {
		if m.Val[i] != 4 {
			t.Errorf("Val[%d] = %v, want 4", i, m.Val[i])
		}
	}
	if m.Ind[0] != 4 {
		t.Errorf("Ind[0] = %d, want n+1 = 4", m.Ind[0])
	}
	if m.NNZ() != a.NNZ() {
		t.Errorf("NNZ = %d, want %d", m.NNZ(), a.NNZ())
	}
	// Validation round trip through NewMSR.
	if _, err := NewMSR(m.N, m.Val, m.Ind); err != nil {
		t.Errorf("NewMSR rejected valid arrays: %v", err)
	}
}

func TestMSRRejectsNonSquare(t *testing.T) {
	a := randomCOO(3, 4, 6, 9).ToCSR()
	if _, err := MSRFromCSR(a); err == nil {
		t.Error("MSRFromCSR accepted a non-square matrix")
	}
}

func TestNewMSRValidation(t *testing.T) {
	if _, err := NewMSR(2, []float64{1, 2, 0, 5}, []int{3, 4, 4, 1}); err != nil {
		t.Errorf("valid MSR rejected: %v", err)
	}
	bad := [][2]any{
		{[]float64{1, 2, 0}, []int{3, 4}},          // length mismatch
		{[]float64{1, 2, 0, 5}, []int{2, 4, 4, 1}}, // ind[0] wrong
		{[]float64{1, 2, 0, 5}, []int{3, 5, 4, 1}}, // not monotone
		{[]float64{1, 2, 0, 5}, []int{3, 4, 4, 9}}, // col out of range
	}
	for i, c := range bad {
		if _, err := NewMSR(2, c[0].([]float64), c[1].([]int)); err == nil {
			t.Errorf("case %d: invalid MSR accepted", i)
		}
	}
}

func TestVBREvenBlocks(t *testing.T) {
	// 4x4 matrix from 2x2 blocks.
	a := Laplace2D(2, 2)
	vbr, err := VBRFromCSR(a, []int{0, 2, 4}, []int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := vbr.Validate(); err != nil {
		t.Fatal(err)
	}
	if r, c := vbr.Dims(); r != 4 || c != 4 {
		t.Errorf("dims %dx%d", r, c)
	}
	if vbr.NumBlockRows() != 2 {
		t.Errorf("block rows = %d", vbr.NumBlockRows())
	}
	densesEqual(t, denseOf(a), denseOf(vbr), 0, "VBR operator")
	back := vbr.ToCSR()
	if !a.AlmostEqual(back, 0) {
		t.Error("VBR -> CSR lost entries")
	}
}

func TestVBRPartitionValidation(t *testing.T) {
	a := Identity(4)
	if _, err := VBRFromCSR(a, []int{0, 2}, []int{0, 2, 4}); err == nil {
		t.Error("row partition not spanning accepted")
	}
	if _, err := VBRFromCSR(a, []int{0, 3, 2, 4}, []int{0, 4}); err == nil {
		t.Error("non-monotone row partition accepted")
	}
}

func TestFEMAssembly(t *testing.T) {
	// Two overlapping 1D linear elements on 3 nodes; assembled matrix is
	// the standard [1 -1 0; -1 2 -1; 0 -1 1].
	f := NewFEM(3, 3)
	ke := []float64{1, -1, -1, 1}
	if err := f.AddElement([]int{0, 1}, ke); err != nil {
		t.Fatal(err)
	}
	if err := f.AddElement([]int{1, 2}, ke); err != nil {
		t.Fatal(err)
	}
	a := f.ToCSR()
	want := [][]float64{{1, -1, 0}, {-1, 2, -1}, {0, -1, 1}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != want[i][j] {
				t.Errorf("A[%d,%d] = %v, want %v", i, j, a.At(i, j), want[i][j])
			}
		}
	}
	// Matrix-free product equals assembled product.
	densesEqual(t, denseOf(f), denseOf(a), 0, "FEM operator")
	if f.NNZ() != 8 {
		t.Errorf("FEM NNZ = %d, want 8 raw entries", f.NNZ())
	}
}

func TestFEMValidation(t *testing.T) {
	f := NewFEM(3, 3)
	if err := f.AddElement([]int{0, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("wrong-size element matrix accepted")
	}
	if err := f.AddElement([]int{0, 7}, []float64{1, 2, 3, 4}); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestVectorIORoundTrip(t *testing.T) {
	x := RandomVector(37, 3)
	x[0] = math.Pi
	var buf bytes.Buffer
	if err := WriteVector(&buf, x); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !densEqHelper(x, got, 0) {
		t.Error("vector I/O round trip changed values")
	}
}

func TestReadVectorErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":     "",
		"badSize":   "x\n",
		"badValue":  "1\nzzz\n",
		"countLied": "3\n1.0\n",
	} {
		if _, err := ReadVector(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadVector accepted malformed input", name)
		}
	}
}

func TestFormatString(t *testing.T) {
	for f, want := range map[Format]string{
		FmtCSR: "CSR", FmtCOO: "COO", FmtMSR: "MSR",
		FmtVBR: "VBR", FmtFEM: "FEM", FmtCSC: "CSC",
	} {
		if f.String() != want {
			t.Errorf("Format %d String = %q", int(f), f.String())
		}
	}
	if s := Format(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown format string %q", s)
	}
}
