package slu

import (
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/sparse"
)

// TestLevelSolveBitwiseMatchesSerial checks the determinism contract of
// the level-scheduled triangular solves: for every worker count the
// pooled SolveInto must reproduce the serial column sweeps bit for bit.
// Beside a dense right-hand side, the rows hold exact zeros, −0 entries
// and a zero leading block, whose solution entries stay zero into the
// sweeps.
func TestLevelSolveBitwiseMatchesSerial(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"laplace": sparse.Laplace2D(11, 9),
		"unsym":   sparse.RandomUnsymmetric(80, 5, 3),
		"tridiag": sparse.Tridiag(63, 1, 3, -2),
	}
	rhs := map[string]func(b []float64){
		"dense": func([]float64) {},
		"zeros": func(b []float64) {
			for i := 0; i < len(b); i += 3 {
				b[i] = 0
			}
		},
		"negzero": func(b []float64) {
			for i := 1; i < len(b); i += 4 {
				b[i] = math.Copysign(0, -1)
			}
		},
		"leadzero": func(b []float64) { clear(b[:len(b)/2]) },
	}
	for name, a := range mats {
		for kind, shape := range rhs {
			b := make([]float64, a.Rows)
			a.MulVec(b, sparse.RandomVector(a.Rows, 5))
			shape(b)
			levelSolveMatchesSerial(t, name+"/"+kind, a, b)
		}
	}
}

func levelSolveMatchesSerial(t *testing.T, name string, a *sparse.CSR, b []float64) {
	t.Helper()
	fRef, err := Factor(a, DefaultOptions())
	if err != nil {
		t.Fatalf("%s: Factor: %v", name, err)
	}
	want := make([]float64, a.Rows)
	if err := fRef.SolveInto(want, b); err != nil {
		t.Fatalf("%s: serial SolveInto: %v", name, err)
	}

	for _, w := range []int{1, 2, 4, 7} {
		p := par.New(w)
		f, err := Factor(a, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: Factor: %v", name, err)
		}
		f.EnableLevels(p)
		got := make([]float64, a.Rows)
		if err := f.SolveInto(got, b); err != nil {
			t.Fatalf("%s w=%d: pooled SolveInto: %v", name, w, err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s w=%d: x[%d] = %x, serial %x", name, w, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		p.Close()
	}
}
