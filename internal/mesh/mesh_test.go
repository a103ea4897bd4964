package mesh

import (
	"errors"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/pmat"
	"repro/internal/slu"
	"repro/internal/sparse"
)

func TestNNZFormulaMatchesPaperSizes(t *testing.T) {
	// The paper's Table 1 sizes come from n ∈ {50,100,200,300,400}.
	for n, want := range map[int]int{
		50: 12300, 100: 49600, 200: 199200, 300: 448800, 400: 798400,
	} {
		p := PaperProblem(n)
		if p.NNZ() != want {
			t.Errorf("n=%d: NNZ formula gives %d, want %d", n, p.NNZ(), want)
		}
		a, _, err := p.GenerateGlobal()
		if err != nil {
			t.Fatal(err)
		}
		if n <= 100 && a.NNZ() != want {
			t.Errorf("n=%d: generated nnz %d, want %d", n, a.NNZ(), want)
		}
		back, err := GridForNNZ(want)
		if err != nil || back != n {
			t.Errorf("GridForNNZ(%d) = %d, %v", want, back, err)
		}
	}
	if _, err := GridForNNZ(12345); err == nil {
		t.Error("non-representable nnz accepted")
	}
}

func TestGeneratedOperatorStencil(t *testing.T) {
	p := PaperProblem(4)
	a, b, err := p.GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 16 || a.Cols != 16 {
		t.Fatalf("dims %dx%d", a.Rows, a.Cols)
	}
	if len(b) != 16 {
		t.Fatalf("rhs length %d", len(b))
	}
	h := 1.0 / 5
	cx := 1 / (h * h)
	// Interior point (1,1) = row 5 has all five stencil entries.
	if got := a.At(5, 5); math.Abs(got-(-4*cx)) > 1e-9 {
		t.Errorf("center coefficient %v, want %v", got, -4*cx)
	}
	if got := a.At(5, 6); math.Abs(got-(cx-3/(2*h))) > 1e-9 {
		t.Errorf("east coefficient %v", got)
	}
	if got := a.At(5, 4); math.Abs(got-(cx+3/(2*h))) > 1e-9 {
		t.Errorf("west coefficient %v", got)
	}
	if got := a.At(5, 1); math.Abs(got-cx) > 1e-9 {
		t.Errorf("south coefficient %v", got)
	}
	if got := a.At(5, 9); math.Abs(got-cx) > 1e-9 {
		t.Errorf("north coefficient %v", got)
	}
	// Corner row 0 has only 3 entries.
	if cnt := a.RowPtr[1] - a.RowPtr[0]; cnt != 3 {
		t.Errorf("corner row has %d entries, want 3", cnt)
	}
}

func TestPerRankGenerationMatchesGlobal(t *testing.T) {
	p := PaperProblem(6)
	global, bGlobal, err := p.GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{1, 2, 3, 4} {
		w, _ := comm.NewWorld(np)
		if err := w.Run(func(c *comm.Comm) {
			l, err := pmat.EvenLayout(c, p.N())
			if err != nil {
				t.Error(err)
				return
			}
			local, bl, err := p.GenerateLocal(l)
			if err != nil {
				t.Error(err)
				return
			}
			want := global.SubMatrix(l.Start, l.Start+l.LocalN)
			if !local.Equal(want) {
				t.Errorf("p=%d rank %d: local rows differ from global slice", np, c.Rank())
			}
			for i := range bl {
				if bl[i] != bGlobal[l.Start+i] {
					t.Errorf("p=%d rank %d: rhs[%d] differs", np, c.Rank(), i)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateRowsValidation(t *testing.T) {
	p := PaperProblem(3)
	if _, _, err := p.GenerateRows(-1, 2); err == nil {
		t.Error("negative start accepted")
	}
	if _, _, err := p.GenerateRows(2, 1); err == nil {
		t.Error("inverted range accepted")
	}
	if _, _, err := p.GenerateRows(0, 99); err == nil {
		t.Error("overlong range accepted")
	}
}

func TestManufacturedSolutionConvergence(t *testing.T) {
	// Discretization error must shrink roughly like h² as the grid
	// refines: solve directly and compare against u*.
	var prevErr float64
	for gi, n := range []int{8, 16, 32} {
		p, exact := ManufacturedProblem(n)
		a, b, err := p.GenerateGlobal()
		if err != nil {
			t.Fatal(err)
		}
		f, err := slu.Factor(a, slu.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		maxErr := 0.0
		for r := 0; r < p.N(); r++ {
			xc, yc := p.coords(r%p.Nx, r/p.Nx)
			if e := math.Abs(x[r] - exact(xc, yc)); e > maxErr {
				maxErr = e
			}
		}
		if gi > 0 && maxErr > prevErr/2.5 {
			t.Errorf("n=%d: error %g did not drop ~4x from %g", n, maxErr, prevErr)
		}
		prevErr = maxErr
	}
	if prevErr > 1e-2 {
		t.Errorf("finest-grid error %g too large", prevErr)
	}
}

func TestBoundaryContributions(t *testing.T) {
	// Nonzero boundary data must appear in the RHS: compare g=0 and g=1.
	p0 := PaperProblem(3)
	p1 := PaperProblem(3)
	p1.G = func(x, y float64) float64 { return 1 }
	_, b0, _ := p0.GenerateGlobal()
	_, b1, _ := p1.GenerateGlobal()
	diff := 0
	for i := range b0 {
		if b0[i] != b1[i] {
			diff++
		}
	}
	// All 8 non-center points of the 3x3 grid touch the boundary.
	if diff != 8 {
		t.Errorf("boundary data changed %d rhs entries, want 8", diff)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := PaperProblem(5)
	a, b, _ := p.GenerateRows(3, 12)
	if err := WriteLocal(dir, 2, a, b); err != nil {
		t.Fatal(err)
	}
	a2, b2, err := ReadLocal(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.AlmostEqual(a2, 0) {
		t.Error("matrix round trip changed values")
	}
	for i := range b {
		if b[i] != b2[i] {
			t.Fatalf("rhs round trip changed entry %d", i)
		}
	}
	if _, _, err := ReadLocal(dir, 7); err == nil {
		t.Error("missing rank files accepted")
	}
	// A non-finite entry in a block-row file is a typed rejection.
	a.Vals[3] = math.NaN()
	if err := WriteLocal(dir, 3, a, b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLocal(dir, 3); !errors.Is(err, sparse.ErrMMNonFinite) {
		t.Errorf("NaN in matrix.3: got %v, want ErrMMNonFinite", err)
	}
}

func TestExactGridValues(t *testing.T) {
	p, exact := ManufacturedProblem(4)
	w, _ := comm.NewWorld(2)
	if err := w.Run(func(c *comm.Comm) {
		l, _ := pmat.EvenLayout(c, p.N())
		vals := p.ExactGridValues(l, exact)
		if len(vals) != l.LocalN {
			t.Errorf("got %d values", len(vals))
		}
		for lr, v := range vals {
			r := l.Start + lr
			x, y := p.coords(r%p.Nx, r/p.Nx)
			if v != exact(x, y) {
				t.Errorf("value mismatch at %d", r)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOperatorIsNonsingular(t *testing.T) {
	p := PaperProblem(5)
	a, _, _ := p.GenerateGlobal()
	f, err := slu.Factor(a, slu.DefaultOptions())
	if err != nil {
		t.Fatalf("paper operator should factor: %v", err)
	}
	if rc := f.RCond(); rc <= 0 {
		t.Errorf("rcond = %g", rc)
	}
}
