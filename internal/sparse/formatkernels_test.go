package sparse

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/par"
)

// kernelMatrices is the property-test corpus: random (unsymmetric and
// diagonally dominant), banded, FEM-assembled, block-structured
// (dense 3×3 blocks), a stencil, and edge shapes (empty rows,
// rectangular, tiny). Negative zeros and denormals
// ride in via the FEM case below.
func kernelMatrices(t testing.TB) map[string]*CSR {
	fem := NewCOO(20, 20)
	for e := 0; e < 18; e++ {
		// Overlapping 3-node elements with sign-mixed entries: assembly
		// cancellation produces ±0 and tiny partial sums, the inputs
		// that catch any reassociated accumulation.
		ke := []float64{
			2, -1, -1e-30,
			-1, 2, -1,
			-1e-30, -1, 2,
		}
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				fem.Append(e+r, e+c, ke[3*r+c])
			}
		}
	}

	// Block matrix with every stored 3×3 block fully dense.
	blk := NewCOO(30, 30)
	for bi := 0; bi < 10; bi++ {
		for _, bj := range []int{bi - 1, bi, bi + 1} {
			if bj < 0 || bj >= 10 {
				continue
			}
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					blk.Append(3*bi+r, 3*bj+c, float64(1+r-c)+0.5*float64(bi-bj))
				}
			}
		}
	}

	empty := NewCOO(9, 9)
	empty.Append(0, 8, -0.0)
	empty.Append(8, 0, 1e-310) // denormal

	rect := NewCOO(13, 40)
	for i := 0; i < 13; i++ {
		rect.Append(i, (7*i)%40, float64(i)-6)
		rect.Append(i, (11*i+3)%40, 0.5)
	}

	return map[string]*CSR{
		"random":    RandomUnsymmetric(90, 7, 42),
		"diagdom":   RandomDiagDominant(120, 5, 7),
		"banded":    Tridiag(100, -1.25, 4, -0.75),
		"fem":       fem.ToCSR(),
		"block3x3":  blk.ToCSR(),
		"stencil":   Laplace2D(12, 12),
		"emptyrows": empty.ToCSR(),
		"rect":      rect.ToCSR(),
		"tiny":      Identity(1),
	}
}

// bitsEqual fails the test when got differs from want in any bit.
func bitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: y[%d] = %x (%g), want %x (%g)",
				label, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// formatBindings enumerates every ParSpMV binding for one matrix that
// must be bitwise-identical to serial CSR: CSR itself, SELL at the
// tuned and a small chunk height, whatever the format rule binds, and
// order-exact MSR for square matrices.
func formatBindings(t testing.TB, a *CSR, add bool, workers int) map[string]*ParSpMV {
	out := map[string]*ParSpMV{}
	bind := func(name string, f func(p *ParSpMV)) {
		p := &ParSpMV{}
		f(p)
		out[name] = p
	}
	bind("csr", func(p *ParSpMV) { p.BindCSR(a, add) })
	bind("sell", func(p *ParSpMV) { p.BindSELL(SELLFromCSR(a, TunedSELLChunk(a.Rows, workers)), add, workers) })
	bind("sell-c4", func(p *ParSpMV) { p.BindSELL(SELLFromCSR(a, 4), add, workers) })
	bind("rule", func(p *ParSpMV) { p.Bind(a, add, ChoiceAuto, workers) })
	if a.Rows == a.Cols {
		m, split, err := MSROrderedFromCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		bind("msr", func(p *ParSpMV) { p.BindMSROrdered(m, split, add) })
	}
	return out
}

// TestFormatsBitwiseIdenticalToCSR is the format determinism
// property: every format × worker count ∈ {1,2,4,7} ×
// {mul, add} reproduces the serial CSR kernel bit for bit on the whole
// matrix corpus. Run under -race this also exercises the pooled
// dispatch synchronization.
func TestFormatsBitwiseIdenticalToCSR(t *testing.T) {
	for name, a := range kernelMatrices(t) {
		t.Run(name, func(t *testing.T) {
			x := RandomVector(a.Cols, 3)
			x[0] = -0.0 // signed-zero input exercises the ±0 hazards
			y0 := RandomVector(a.Rows, 5)

			wantMul := make([]float64, a.Rows)
			a.MulVec(wantMul, x)
			wantAdd := make([]float64, a.Rows)
			copy(wantAdd, y0)
			a.MulVecAdd(wantAdd, x)

			for _, workers := range []int{1, 2, 4, 7} {
				pool := par.New(workers)
				for _, add := range []bool{false, true} {
					want := wantMul
					if add {
						want = wantAdd
					}
					for fname, k := range formatBindings(t, a, add, workers) {
						y := make([]float64, a.Rows)
						copy(y, y0)
						if !add {
							// Poison to catch kernels that skip writes.
							for i := range y {
								y[i] = math.NaN()
							}
						}
						k.Apply(pool, y, x)
						bitsEqual(t, fmt.Sprintf("%s/%s/w=%d/add=%v", name, fname, workers, add), y, want)
					}
				}
				pool.Close()
			}
		})
	}
}

// TestFormatSerialKernelsBitwise pins the pool-less path of the bound
// SELL kernel (Apply with a nil pool, what a serial solve runs) to the
// CSR bits too, at the default chunk height.
func TestFormatSerialKernelsBitwise(t *testing.T) {
	for name, a := range kernelMatrices(t) {
		x := RandomVector(a.Cols, 11)
		want := make([]float64, a.Rows)
		a.MulVec(want, x)
		wantAdd := RandomVector(a.Rows, 13)
		y := append([]float64(nil), wantAdd...)
		a.MulVecAdd(wantAdd, x)

		s := SELLFromCSR(a, 0)
		var k ParSpMV
		k.BindSELL(s, true, 1)
		k.Apply(nil, y, x)
		bitsEqual(t, name+"/sell-serial-add", y, wantAdd)

		k.BindSELL(s, false, 1)
		k.Apply(nil, y, x)
		bitsEqual(t, name+"/sell-serial", y, want)
	}
}

// TestFormatRoundTrips pins the converters as exact inverses: the
// structural invariants hold and ToCSR reproduces the source CSR
// entry-for-entry (bit-exact Equal, not AlmostEqual).
func TestFormatRoundTrips(t *testing.T) {
	for name, a := range kernelMatrices(t) {
		s := SELLFromCSR(a, 0)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: SELL: %v", name, err)
		}
		if !s.ToCSR().Equal(a) {
			t.Fatalf("%s: SELL round-trip mismatch", name)
		}
	}
}

// TestFormatRule pins the rule ParSpMV.Bind applies for ChoiceAuto as
// a function of (Rows, NNZ) alone: SELL when the block stores at least
// one entry per row on average, CSR otherwise, and CSR always for
// ChoiceCSR.
func TestFormatRule(t *testing.T) {
	sparseRows := NewCOO(50, 10) // 49 entries in 50 rows: just under one per row
	for i := 0; i < 49; i++ {
		sparseRows.Append(i, i%10, 1)
	}
	oneEach := NewCOO(50, 10) // exactly one per row
	for i := 0; i < 50; i++ {
		oneEach.Append(i, i%10, 1)
	}
	for _, tc := range []struct {
		name string
		a    *CSR
		want Format
	}{
		{"stencil", Laplace2D(12, 12), FmtSELL},
		{"one-per-row", oneEach.ToCSR(), FmtSELL},
		{"under-one-per-row", sparseRows.ToCSR(), FmtCSR},
		{"no-entries", NewCOO(7, 3).ToCSR(), FmtCSR},
		{"no-rows", NewCOO(0, 5).ToCSR(), FmtCSR},
	} {
		for _, add := range []bool{false, true} {
			var k ParSpMV
			if k.Bind(tc.a, add, ChoiceAuto, 1); k.Format() != tc.want {
				t.Errorf("%s add=%v: rule bound %v, want %v", tc.name, add, k.Format(), tc.want)
			}
			if k.Bind(tc.a, add, ChoiceCSR, 1); k.Format() != FmtCSR {
				t.Errorf("%s add=%v: ChoiceCSR bound %v", tc.name, add, k.Format())
			}
		}
	}
}
