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
	if m.Ind[3] != len(m.Val) || len(m.Val) != 4+4 {
		t.Errorf("Ind[n] = %d, len(Val) = %d, want both n+1+offdiag = 8", m.Ind[3], len(m.Val))
	}
}

func TestMSRRejectsNonSquare(t *testing.T) {
	a := randomCOO(3, 4, 6, 9).ToCSR()
	if _, err := MSRFromCSR(a); err == nil {
		t.Error("MSRFromCSR accepted a non-square matrix")
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
		FmtCSR: "CSR", FmtMSR: "MSR", FmtSELL: "SELL",
	} {
		if f.String() != want {
			t.Errorf("Format %d String = %q", int(f), f.String())
		}
	}
	if s := Format(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown format string %q", s)
	}
}
