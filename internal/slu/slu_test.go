package slu

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

// residualInf returns ‖b − A·x‖∞.
func residualInf(a *sparse.CSR, b, x []float64) float64 {
	r := make([]float64, a.Rows)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return sparse.NormInf(r)
}

func factorSolveCheck(t *testing.T, a *sparse.CSR, opts Options, tol float64) *LU {
	t.Helper()
	f, err := Factor(a, opts)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	xstar := sparse.RandomVector(a.Rows, 21)
	b := make([]float64, a.Rows)
	a.MulVec(b, xstar)
	x, err := f.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if r := residualInf(a, b, x); r > tol {
		t.Fatalf("residual %g > %g (ordering %v, equil %v)", r, tol, opts.ColPerm, opts.Equilibrate)
	}
	return f
}

func TestFactorSolveAllOrderings(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"laplace":  sparse.Laplace2D(9, 7),
		"dominant": sparse.RandomDiagDominant(50, 5, 7),
		"unsym":    sparse.RandomUnsymmetric(40, 4, 3),
		"tridiag":  sparse.Tridiag(30, 1, 3, -2),
	}
	for name, a := range mats {
		for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderMinDegree} {
			for _, equil := range []bool{false, true} {
				opts := Options{ColPerm: ord, PivotThreshold: 1.0, Equilibrate: equil}
				t.Run(name+"/"+ord.String(), func(t *testing.T) {
					factorSolveCheck(t, a, opts, 1e-8)
				})
			}
		}
	}
}

func TestThresholdPivoting(t *testing.T) {
	a := sparse.RandomUnsymmetric(60, 5, 9)
	for _, u := range []float64{0.1, 0.5, 1.0} {
		opts := Options{ColPerm: OrderMinDegree, PivotThreshold: u, Equilibrate: true}
		factorSolveCheck(t, a, opts, 1e-6)
	}
}

func TestFactorValidation(t *testing.T) {
	rect := sparse.NewCOO(2, 3)
	rect.Append(0, 0, 1)
	if _, err := Factor(rect.ToCSR(), DefaultOptions()); err == nil {
		t.Error("rectangular matrix accepted")
	}
	opts := DefaultOptions()
	opts.PivotThreshold = 0
	if _, err := Factor(sparse.Identity(3), opts); err == nil {
		t.Error("zero pivot threshold accepted")
	}
	opts.PivotThreshold = 2
	if _, err := Factor(sparse.Identity(3), opts); err == nil {
		t.Error("threshold > 1 accepted")
	}
	empty := sparse.NewCOO(0, 0).ToCSR()
	if _, err := Factor(empty, DefaultOptions()); err == nil {
		t.Error("empty matrix accepted")
	}
}

func TestSingularMatrixDetected(t *testing.T) {
	// Structurally singular: an empty column.
	coo := sparse.NewCOO(3, 3)
	coo.Append(0, 0, 1)
	coo.Append(1, 0, 2)
	coo.Append(2, 2, 3)
	coo.Append(1, 2, 1)
	if _, err := Factor(coo.ToCSR(), Options{ColPerm: OrderNatural, PivotThreshold: 1}); err == nil {
		t.Error("structurally singular matrix accepted")
	}

	// Numerically singular: two identical rows.
	coo2 := sparse.NewCOO(3, 3)
	for j, v := range []float64{1, 2, 3} {
		coo2.Append(0, j, v)
		coo2.Append(1, j, v)
	}
	coo2.Append(2, 0, 5)
	if _, err := Factor(coo2.ToCSR(), Options{ColPerm: OrderNatural, PivotThreshold: 1}); err == nil {
		t.Error("numerically singular matrix accepted")
	}
}

func TestPivotingRescuesZeroDiagonal(t *testing.T) {
	// [0 1; 1 0] has zero diagonals; partial pivoting must handle it.
	coo := sparse.NewCOO(2, 2)
	coo.Append(0, 1, 1)
	coo.Append(1, 0, 1)
	a := coo.ToCSR()
	f, err := Factor(a, Options{ColPerm: OrderNatural, PivotThreshold: 1})
	if err != nil {
		t.Fatalf("anti-diagonal factor failed: %v", err)
	}
	x, err := f.Solve([]float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Errorf("x = %v, want [4 3]", x)
	}
}

func TestSolveLengthValidation(t *testing.T) {
	f, _ := Factor(sparse.Identity(4), DefaultOptions())
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Error("short rhs accepted")
	}
}

func TestIterativeRefinement(t *testing.T) {
	a := sparse.RandomUnsymmetric(50, 5, 13)
	f, err := Factor(a, Options{ColPerm: OrderMinDegree, PivotThreshold: 0.1, Equilibrate: false})
	if err != nil {
		t.Fatal(err)
	}
	xstar := sparse.RandomVector(50, 7)
	b := make([]float64, 50)
	a.MulVec(b, xstar)
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	res0 := residualInf(a, b, x)
	res, err := f.Refine(a, b, x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res > res0+1e-12 {
		t.Errorf("refinement increased residual: %g -> %g", res0, res)
	}
	if res > 1e-9 {
		t.Errorf("refined residual %g still large", res)
	}
	// Dimension mismatch.
	if _, err := f.Refine(sparse.Identity(3), b, x, 1); err == nil {
		t.Error("mismatched Refine accepted")
	}
}

func TestOrderingReducesFill(t *testing.T) {
	a := sparse.Laplace2D(20, 20)
	nat, err := Factor(a, Options{ColPerm: OrderNatural, PivotThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	mmd, err := Factor(a, Options{ColPerm: OrderMinDegree, PivotThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mmd.NNZ() >= nat.NNZ() {
		t.Errorf("minimum degree fill %d not below natural fill %d", mmd.NNZ(), nat.NNZ())
	}
	if mmd.FillRatio(a.NNZ()) <= 0 {
		t.Error("fill ratio not positive")
	}
}

func TestOrderingsArePermutations(t *testing.T) {
	a := sparse.RandomDiagDominant(40, 4, 17)
	for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderMinDegree} {
		q, err := ComputeOrdering(a, ord)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, 40)
		for _, v := range q {
			if v < 0 || v >= 40 || seen[v] {
				t.Fatalf("%v: not a permutation", ord)
			}
			seen[v] = true
		}
	}
}

func TestOrderingFromName(t *testing.T) {
	for name, want := range map[string]Ordering{
		"natural": OrderNatural, "": OrderNatural,
		"rcm": OrderRCM, "mmd": OrderMinDegree, "amd": OrderMinDegree,
	} {
		got, err := OrderingFromName(name)
		if err != nil || got != want {
			t.Errorf("OrderingFromName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := OrderingFromName("zzz"); err == nil {
		t.Error("unknown ordering name accepted")
	}
}

// Property: for random diagonally dominant systems, Factor+Solve
// reproduces a known solution across orderings.
func TestQuickFactorSolve(t *testing.T) {
	f := func(seed int64) bool {
		n := 10 + int(seed%21+21)%21
		a := sparse.RandomDiagDominant(n, 4, seed)
		ord := Ordering(int(seed%3+3) % 3)
		lu, err := Factor(a, Options{ColPerm: ord, PivotThreshold: 1, Equilibrate: seed%2 == 0})
		if err != nil {
			return false
		}
		xstar := sparse.RandomVector(n, seed+1)
		b := make([]float64, n)
		a.MulVec(b, xstar)
		x, err := lu.Solve(b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-xstar[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDistSolver(t *testing.T) {
	global := sparse.Laplace2D(8, 6)
	n := global.Rows
	xstar := sparse.RandomVector(n, 44)
	b := make([]float64, n)
	global.MulVec(b, xstar)
	for _, p := range []int{1, 2, 4} {
		w, err := comm.NewWorld(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(c *comm.Comm) {
			l, err := pmat.EvenLayout(c, n)
			if err != nil {
				t.Error(err)
				return
			}
			local := global.SubMatrix(l.Start, l.Start+l.LocalN)
			m, err := pmat.NewMat(l, local)
			if err != nil {
				t.Error(err)
				return
			}
			d, err := NewDistSolver(m, DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			bl := make([]float64, l.LocalN)
			copy(bl, b[l.Start:l.Start+l.LocalN])
			xl, err := d.Solve(bl)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range xl {
				if math.Abs(xl[i]-xstar[l.Start+i]) > 1e-9 {
					t.Errorf("p=%d: x[%d] = %v, want %v", p, i, xl[i], xstar[l.Start+i])
					return
				}
			}
			if d.FillRatio() <= 0 {
				t.Error("fill ratio not positive")
			}
			if c.Rank() == 0 && d.f.n != n {
				t.Error("factorization order wrong")
			} else if c.Rank() != 0 && d.f != nil {
				t.Error("non-root rank holds factors")
			}
			// Wrong local length.
			if _, err := d.Solve(make([]float64, l.LocalN+1)); err == nil {
				t.Error("wrong local rhs length accepted")
			}
		}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.ColPerm != OrderMinDegree || o.PivotThreshold != 1.0 || !o.Equilibrate {
		t.Errorf("unexpected defaults: %+v", o)
	}
}
