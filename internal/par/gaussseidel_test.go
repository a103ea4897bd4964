package par_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/par"
)

// gsBlock is a square CSR block with ascending columns and a stored
// diagonal in every row: the shape both Krylov packages hand their
// Gauss–Seidel preconditioners.
type gsBlock struct {
	n      int
	rowPtr []int
	cols   []int
	vals   []float64
}

// refGSForward and refGSBackward are the row loops of the symmetric
// Gauss–Seidel preconditioner before it moved onto RowTri.GaussSeidel:
// storage-order sum over the row, diagonal skipped, then s/d.
func refGSForward(a gsBlock, diag, z, r []float64) {
	for i := 0; i < a.n; i++ {
		sum := r[i]
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if j := a.cols[k]; j != i {
				sum -= a.vals[k] * z[j]
			}
		}
		z[i] = sum / diag[i]
	}
}

func refGSBackward(a gsBlock, diag, z, r []float64) {
	for i := a.n - 1; i >= 0; i-- {
		sum := r[i]
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if j := a.cols[k]; j != i {
				sum -= a.vals[k] * z[j]
			}
		}
		z[i] = sum / diag[i]
	}
}

// refSOR is the relaxed row loop SOR/SSOR ran before the same move,
// forward or backward: x ← (1−ω)·x + ω·s/d with the diagonal looked up
// in the row.
func refSOR(a gsBlock, x, b []float64, omega float64, back bool) {
	for q := 0; q < a.n; q++ {
		i := q
		if back {
			i = a.n - 1 - q
		}
		s := b[i]
		var diag float64
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			j := a.cols[k]
			if j == i {
				diag = a.vals[k]
				continue
			}
			s -= a.vals[k] * x[j]
		}
		x[i] = (1-omega)*x[i] + omega*s/diag
	}
}

// gsFuzzValue decodes one byte into a small value; byte 0 is −0, so a
// right-hand side can carry a negative zero.
func gsFuzzValue(b byte) float64 {
	if b == 0 {
		return math.Copysign(0, -1)
	}
	return float64(int(b)-128) / 16
}

// decodeGS turns fuzz bytes into a strictly diagonally dominant block, a
// right-hand side, a sweep count 1–3 and a mode (0 forward, 1 backward,
// 2 forward then backward per sweep).
func decodeGS(data []byte) (a gsBlock, r []float64, sweeps, mode int) {
	next := func() byte {
		if len(data) == 0 {
			return 128
		}
		b := data[0]
		data = data[1:]
		return b
	}
	a.n = 1 + int(next())%24
	ctl := int(next())
	sweeps, mode = 1+ctl%3, (ctl/3)%3
	r = make([]float64, a.n)
	for i := range r {
		r[i] = gsFuzzValue(next())
	}
	rows := make([]map[int]float64, a.n)
	for i := range rows {
		rows[i] = map[int]float64{}
	}
	for len(data) >= 3 {
		i, j, v := int(next())%a.n, int(next())%a.n, float64(int(next())-128)/32
		if i != j {
			rows[i][j] = v
		}
	}
	a.rowPtr = make([]int, a.n+1)
	for i, row := range rows {
		d := 1.0
		for _, v := range row {
			d += math.Abs(v)
		}
		row[i] = d
		cols := make([]int, 0, len(row))
		for j := range row {
			cols = append(cols, j)
		}
		slices.Sort(cols)
		for _, j := range cols {
			a.cols = append(a.cols, j)
			a.vals = append(a.vals, row[j])
		}
		a.rowPtr[i+1] = len(a.cols)
	}
	return a, r, sweeps, mode
}

// FuzzGaussSeidelMatchesReference: RowTri.GaussSeidel, run sweeps times
// in each mode from a zero guess, leaves exactly the bits of the old
// symmetric Gauss–Seidel loops, and equals the old ω = 1 SOR loop as a
// number. Where the SOR form differs in bits it is the sign of a zero:
// its (1−ω)·x term turns a −0 quotient into +0, the sweep keeps −0. The
// third seed plants that −0.
func FuzzGaussSeidelMatchesReference(f *testing.F) {
	f.Add([]byte{5, 2, 130, 100, 0, 140, 127, 160, 0, 1, 64, 1, 0, 200, 3, 2, 90, 4, 3, 150})
	f.Add([]byte{23, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 250, 12, 13, 14})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{2, 8, 0, 0, 0, 1, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, r, sweeps, mode := decodeGS(data)
		tri, bad := par.SplitAtDiagonal(a.rowPtr, a.cols, a.vals)
		if tri == nil {
			t.Fatalf("dominant block rejected at row %d", bad)
		}
		got, gs, sor := make([]float64, a.n), make([]float64, a.n), make([]float64, a.n)
		for s := 0; s < sweeps; s++ {
			if mode != 1 {
				tri.GaussSeidel(got, r, false)
				refGSForward(a, tri.Diag, gs, r)
				refSOR(a, sor, r, 1, false)
			}
			if mode != 0 {
				tri.GaussSeidel(got, r, true)
				refGSBackward(a, tri.Diag, gs, r)
				refSOR(a, sor, r, 1, true)
			}
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(gs[i]) {
				t.Fatalf("sweeps %d mode %d: z[%d] = %v, Gauss–Seidel reference %v", sweeps, mode, i, got[i], gs[i])
			}
			if math.Float64bits(got[i]) != math.Float64bits(sor[i]) &&
				!(got[i] == 0 && math.Signbit(got[i]) && !math.Signbit(sor[i])) {
				t.Fatalf("sweeps %d mode %d: z[%d] = %v, SOR reference %v", sweeps, mode, i, got[i], sor[i])
			}
		}
	})
}

// TestGaussSeidelKeepsNegativeZero pins the zero sign on its own: a −0
// right-hand side over a positive diagonal sweeps to −0.
func TestGaussSeidelKeepsNegativeZero(t *testing.T) {
	tri, _ := par.SplitAtDiagonal([]int{0, 1}, []int{0}, []float64{2})
	z := []float64{0}
	tri.GaussSeidel(z, []float64{math.Copysign(0, -1)}, false)
	if !math.Signbit(z[0]) || z[0] != 0 {
		t.Fatalf("z = %v (sign bit %v), want −0", z[0], math.Signbit(z[0]))
	}
}

// TestSplitAtDiagonalRejects: an absent or zero diagonal names its row.
func TestSplitAtDiagonalRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rowPtr []int
		cols   []int
		vals   []float64
		want   int
	}{
		{"absent", []int{0, 1, 2}, []int{0, 0}, []float64{1, 1}, 1},
		{"zero", []int{0, 1, 2}, []int{0, 1}, []float64{0, 1}, 0},
		{"only-upper", []int{0, 1, 2}, []int{1, 1}, []float64{1, 1}, 0},
	} {
		if tri, bad := par.SplitAtDiagonal(tc.rowPtr, tc.cols, tc.vals); tri != nil || bad != tc.want {
			t.Errorf("%s: row %d, want %d", tc.name, bad, tc.want)
		}
	}
}
