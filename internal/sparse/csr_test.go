package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// denseOf expands a CSR to a dense row-major array for reference
// comparisons.
func denseOf(m *CSR) []float64 {
	rows, cols := m.Rows, m.Cols
	d := make([]float64, rows*cols)
	x := make([]float64, cols)
	y := make([]float64, rows)
	for j := 0; j < cols; j++ {
		x[j] = 1
		m.MulVec(y, x)
		for i := 0; i < rows; i++ {
			d[i*cols+j] = y[i]
		}
		x[j] = 0
	}
	return d
}

func densesEqual(t *testing.T, a, b []float64, tol float64, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: dense sizes differ: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			t.Fatalf("%s: entry %d differs: %g vs %g", what, i, a[i], b[i])
		}
	}
}

// randomCOO builds a reproducible random COO with duplicates.
func randomCOO(rows, cols, nnz int, seed int64) *COO {
	rng := rand.New(rand.NewSource(seed))
	c := NewCOO(rows, cols)
	for k := 0; k < nnz; k++ {
		c.Append(rng.Intn(rows), rng.Intn(cols), rng.Float64()*2-1)
	}
	return c
}

func TestNewCSRValidation(t *testing.T) {
	cases := []struct {
		name   string
		rows   int
		cols   int
		rp, ci []int
		v      []float64
	}{
		{"badRowPtrLen", 2, 2, []int{0, 1}, []int{0}, []float64{1}},
		{"rowPtrNotZero", 1, 1, []int{1, 1}, []int{}, []float64{}},
		{"lenMismatch", 1, 1, []int{0, 1}, []int{0}, []float64{}},
		{"endMismatch", 1, 1, []int{0, 2}, []int{0}, []float64{1}},
		{"notMonotone", 2, 2, []int{0, 2, 1}, []int{0, 1}, []float64{1, 2}},
		{"colOutOfRange", 1, 1, []int{0, 1}, []int{5}, []float64{1}},
		{"negativeDims", -1, 1, []int{0}, []int{}, []float64{}},
	}
	for _, c := range cases {
		if _, err := NewCSR(c.rows, c.cols, c.rp, c.ci, c.v); err == nil {
			t.Errorf("%s: NewCSR accepted invalid input", c.name)
		}
	}
	if _, err := NewCSR(2, 3, []int{0, 2, 3}, []int{0, 2, 1}, []float64{1, 2, 3}); err != nil {
		t.Errorf("valid CSR rejected: %v", err)
	}
}

func TestCSRBasicOps(t *testing.T) {
	// A = [2 0 1; 0 3 0]
	a, err := NewCSR(2, 3, []int{0, 2, 3}, []int{0, 2, 1}, []float64{2, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r, c := a.Rows, a.Cols; r != 2 || c != 3 {
		t.Errorf("Dims = %d,%d", r, c)
	}
	if a.NNZ() != 3 {
		t.Errorf("NNZ = %d", a.NNZ())
	}
	y := make([]float64, 2)
	a.MulVec(y, []float64{1, 2, 3})
	if y[0] != 5 || y[1] != 6 {
		t.Errorf("MulVec = %v", y)
	}
	if a.At(0, 2) != 1 || a.At(0, 1) != 0 || a.At(1, 1) != 3 {
		t.Errorf("At lookup failed")
	}
	if a.NormInf() != 3 {
		t.Errorf("NormInf = %v", a.NormInf())
	}
}

func TestCSRTransposeInvolution(t *testing.T) {
	a := randomCOO(7, 5, 30, 1).ToCSR()
	tt := a.Transpose().Transpose()
	if !a.Equal(tt) {
		t.Error("transpose twice is not the identity")
	}
	densesEqual(t, denseOf(a.Transpose()), transposeDense(denseOf(a), 7, 5), 0, "transpose")
}

func transposeDense(d []float64, rows, cols int) []float64 {
	out := make([]float64, len(d))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = d[i*cols+j]
		}
	}
	return out
}

func TestCSRMulVecAdd(t *testing.T) {
	a := Tridiag(5, -1, 2, -1)
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 1, 1, 1, 1}
	want := make([]float64, 5)
	a.MulVec(want, x)
	for i := range want {
		want[i]++
	}
	a.MulVecAdd(y, x)
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("MulVecAdd[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestCSRSubMatrix(t *testing.T) {
	a := Laplace2D(4, 4)
	s := a.SubMatrix(4, 12)
	if r, c := s.Rows, s.Cols; r != 8 || c != 16 {
		t.Fatalf("SubMatrix dims %dx%d", r, c)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 16; j++ {
			if s.At(i, j) != a.At(i+4, j) {
				t.Fatalf("SubMatrix entry (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestCSRScaleRowsAndResidual(t *testing.T) {
	a := Tridiag(4, 1, 4, 1)
	b := a.Clone()
	b.ScaleRows([]float64{2, 2, 2, 2})
	x := []float64{1, 1, 1, 1}
	ya := make([]float64, 4)
	yb := make([]float64, 4)
	a.MulVec(ya, x)
	b.MulVec(yb, x)
	for i := range ya {
		if yb[i] != 2*ya[i] {
			t.Fatalf("ScaleRows: %v vs %v", yb, ya)
		}
	}
	r := a.Residual(ya, x)
	if Norm2(r) != 0 {
		t.Errorf("Residual of exact solution is %v", r)
	}
}

func TestCOOToCSRSumsDuplicates(t *testing.T) {
	c := NewCOO(2, 2)
	c.Append(0, 0, 1)
	c.Append(0, 0, 2)
	c.Append(1, 1, 5)
	c.Append(0, 1, -1)
	a := c.ToCSR()
	if a.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", a.NNZ())
	}
	if a.At(0, 0) != 3 || a.At(0, 1) != -1 || a.At(1, 1) != 5 {
		t.Errorf("bad merged values")
	}
	// Column indices must be sorted within rows.
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i] + 1; k < a.RowPtr[i+1]; k++ {
			if a.ColInd[k-1] >= a.ColInd[k] {
				t.Fatalf("row %d columns not strictly sorted", i)
			}
		}
	}
}

// TestCOOToCSRAscendingRowsPassThrough: rows that scatter in ascending
// order skip the sort; they must land correctly after rows whose merged
// duplicates shifted everything behind them to the left, and an allocation
// count independent of the row count shows the sort really is skipped.
func TestCOOToCSRAscendingRowsPassThrough(t *testing.T) {
	c := NewCOO(5, 6)
	c.Append(0, 1, 1) // ascending
	c.Append(0, 4, 2)
	c.Append(1, 3, 1) // duplicates and disorder: 3 entries merge away
	c.Append(1, 0, 2)
	c.Append(1, 3, 4)
	c.Append(1, 0, 8)
	c.Append(1, 3, 16)
	c.Append(2, 0, 5) // ascending, lands 3 slots left of where it scattered
	c.Append(2, 2, 6)
	c.Append(2, 5, 7)
	// row 3 empty
	c.Append(4, 5, 9) // interleaved appends still scatter ascending
	c.Append(0, 5, 3)
	want, err := NewCSR(5, 6,
		[]int{0, 3, 5, 8, 8, 9},
		[]int{1, 4, 5, 0, 3, 0, 2, 5, 5},
		[]float64{1, 2, 3, 10, 21, 5, 6, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ToCSR(); !got.Equal(want) {
		t.Errorf("ToCSR = %v %v %v, want %v %v %v",
			got.RowPtr, got.ColInd, got.Vals, want.RowPtr, want.ColInd, want.Vals)
	}

	small, large := Laplace2D(10, 10).ToCOO(), Laplace2D(40, 40).ToCOO()
	as := testing.AllocsPerRun(5, func() { small.ToCSR() })
	al := testing.AllocsPerRun(5, func() { large.ToCSR() })
	if as != al {
		t.Errorf("ToCSR of sorted input allocates %v objects at n=100 but %v at n=1600", as, al)
	}
}

// TestConverterAllocsConstant is the measured gate on the Setup-time
// converters: each sizes its output up front, so its allocation count
// must not grow with the operator.
func TestConverterAllocsConstant(t *testing.T) {
	var ops []*CSR
	coos := make(map[*CSR]*COO)
	for _, side := range []int{10, 40, 160} { // n = 100, 1,600, 25,600
		a := Laplace2D(side, side)
		ops = append(ops, a)
		coos[a] = a.ToCOO()
	}
	var k ParSpMV
	converters := []struct {
		name string
		run  func(a *CSR)
	}{
		{"COO.ToCSR", func(a *CSR) { coos[a].ToCSR() }},
		{"SELLFromCSR", func(a *CSR) { SELLFromCSR(a, 0) }},
		{"MSRFromCSR", func(a *CSR) { MSRFromCSR(a) }},
		{"MSROrderedFromCSR", func(a *CSR) { MSROrderedFromCSR(a) }},
		{"ParSpMV.Bind w=1", func(a *CSR) { k.Bind(a, false, ChoiceAuto, 1) }},
		{"ParSpMV.Bind w=2", func(a *CSR) { k.Bind(a, false, ChoiceAuto, 2) }},
	}
	for _, c := range converters {
		var counts []float64
		for _, a := range ops {
			counts = append(counts, leastAllocs(3, func() { c.run(a) }))
		}
		if counts[1] != counts[0] || counts[2] != counts[0] {
			t.Errorf("%s allocates %v objects at n = 100 / 1,600 / 25,600, want one constant", c.name, counts)
		}
	}
}

// TestSplitCols: the split keeps every row's order, re-indexes the
// columns in [lo, hi) from 0, and closes the gap in the rest.
func TestSplitCols(t *testing.T) {
	a := &CSR{Rows: 2, Cols: 6, RowPtr: []int{0, 4, 6}, ColInd: []int{0, 2, 3, 5, 1, 4}, Vals: []float64{1, 2, 3, 4, 5, 6}}
	in, out := a.SplitCols(2, 4)
	wantIn := &CSR{Rows: 2, Cols: 2, RowPtr: []int{0, 2, 2}, ColInd: []int{0, 1}, Vals: []float64{2, 3}}
	wantOut := &CSR{Rows: 2, Cols: 4, RowPtr: []int{0, 2, 4}, ColInd: []int{0, 3, 1, 2}, Vals: []float64{1, 4, 5, 6}}
	if !in.Equal(wantIn) || !out.Equal(wantOut) {
		t.Errorf("SplitCols(2, 4) = %+v | %+v, want %+v | %+v", in, out, wantIn, wantOut)
	}
}

func TestCOOValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append out of range did not panic")
		}
	}()
	NewCOO(1, 1).Append(3, 0, 1)
}

// Property: COO→CSR preserves the linear operator for random matrices with
// duplicates.
func TestQuickCOOCSRSameOperator(t *testing.T) {
	f := func(seed int64) bool {
		rows := int(seed%7+7) % 7 * 3 // 0..18 step 3
		rows += 2
		cols := rows + 1
		coo := randomCOO(rows, cols, rows*4, seed)
		csr := coo.ToCSR()
		da := make([]float64, rows*cols) // the triplets summed where they fall
		for k, v := range coo.Val {
			da[coo.Row[k]*cols+coo.Col[k]] += v
		}
		db := denseOf(csr)
		for i := range da {
			if math.Abs(da[i]-db[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: all format round trips through CSR preserve the operator.
func TestQuickFormatRoundTrips(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%5+5)%5 + 4 // 4..8
		a := RandomDiagDominant(n, 3, seed)
		da := denseOf(a)

		// CSR -> COO -> CSR
		if d := denseOf(a.ToCOO().ToCSR()); !denseEq(da, d, 0) {
			return false
		}
		// CSR -> VBR -> CSR with an irregular partition
		rp := irregularPartition(n)
		vbr, err := VBRFromCSR(a, rp, rp)
		if err != nil {
			return false
		}
		if vbr.Validate() != nil {
			return false
		}
		if d := denseOf(vbr.ToCSR()); !denseEq(da, d, 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func densEqHelper(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func denseEq(a, b []float64, tol float64) bool { return densEqHelper(a, b, tol) }

func irregularPartition(n int) []int {
	p := []int{0}
	step := 1
	for p[len(p)-1] < n {
		next := p[len(p)-1] + step
		if next > n {
			next = n
		}
		p = append(p, next)
		step++
		if step > 3 {
			step = 1
		}
	}
	return p
}

// Property: MulVec(Transpose(A)) equals Aᵀ·x summed by definition.
func TestQuickTransposeConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rows := int(seed%6+6)%6 + 3
		cols := rows + 2
		a := randomCOO(rows, cols, rows*3, seed).ToCSR()
		x := RandomVector(rows, seed+1)
		y1 := make([]float64, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				y1[j] += a.At(i, j) * x[i]
			}
		}
		y2 := make([]float64, cols)
		a.Transpose().MulVec(y2, x)
		return densEqHelper(y1, y2, 1e-13)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{3, 4}
	if Norm2(a) != 5 {
		t.Errorf("Norm2 = %v", Norm2(a))
	}
	if NormInf([]float64{-7, 2}) != 7 {
		t.Errorf("NormInf failed")
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Errorf("Dot failed")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Errorf("Axpy = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 || y[1] != 2.5 {
		t.Errorf("Scale = %v", y)
	}
	// Norm2 must not overflow for huge entries.
	if got := Norm2([]float64{1e308, 1e308}); math.IsInf(got, 0) {
		t.Errorf("Norm2 overflowed: %v", got)
	}
}

func TestAlmostEqual(t *testing.T) {
	a := Tridiag(4, -1, 2, -1)
	b := a.Clone()
	if !a.AlmostEqual(b, 0) {
		t.Error("identical matrices not AlmostEqual")
	}
	b.Vals[0] += 1e-9
	if a.AlmostEqual(b, 1e-12) {
		t.Error("perturbed matrix AlmostEqual at tight tol")
	}
	if !a.AlmostEqual(b, 1e-8) {
		t.Error("perturbed matrix not AlmostEqual at loose tol")
	}
	// Different pattern, same operator modulo explicit zero.
	c := NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if v := a.At(i, j); v != 0 {
				c.Append(i, j, v)
			}
		}
	}
	c.Append(0, 3, 0) // explicit zero changes pattern only
	if !a.AlmostEqual(c.ToCSR(), 0) {
		t.Error("pattern-differing equal matrices not AlmostEqual")
	}
}

func TestGenerators(t *testing.T) {
	id := Identity(3)
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	id.MulVec(y, x)
	if !densEqHelper(x, y, 0) {
		t.Error("Identity is not the identity")
	}

	lap := Laplace2D(3, 2)
	if r, c := lap.Rows, lap.Cols; r != 6 || c != 6 {
		t.Errorf("Laplace2D dims %dx%d", r, c)
	}
	// Symmetry check.
	if !lap.AlmostEqual(lap.Transpose(), 0) {
		t.Error("Laplace2D not symmetric")
	}

	rd := RandomDiagDominant(20, 4, 42)
	for i := 0; i < 20; i++ {
		off := 0.0
		for k := rd.RowPtr[i]; k < rd.RowPtr[i+1]; k++ {
			if rd.ColInd[k] != i {
				off += math.Abs(rd.Vals[k])
			}
		}
		if rd.At(i, i) <= off {
			t.Fatalf("row %d not strictly diagonally dominant", i)
		}
	}

	// Determinism.
	rd2 := RandomDiagDominant(20, 4, 42)
	if !rd.Equal(rd2) {
		t.Error("RandomDiagDominant not deterministic for fixed seed")
	}
}

// leastAllocs is the least of three testing.AllocsPerRun(runs, f)
// counts. AllocsPerRun counts every goroutine's mallocs, so a stray
// allocation elsewhere in the test binary only ever adds to one count,
// while an allocation f itself makes shows in every one.
func leastAllocs(runs int, f func()) float64 {
	least := testing.AllocsPerRun(runs, f)
	for i := 1; i < allocSamples; i++ {
		least = min(least, testing.AllocsPerRun(runs, f))
	}
	return least
}

// allocSamples is how many counts leastAllocs takes.
const allocSamples = 3
