package sparse

import (
	"fmt"
	"testing"
)

// Kernel benchmarks for the sparse substrate. These quantify the costs
// the LISI adapter deals in: format conversion (the setupMatrix role)
// and matrix-vector products in every supported format.

func benchOperator(n int) *CSR { return Laplace2D(n, n) }

// benchBlockMatrix builds a block-tridiagonal matrix of fully dense
// 3×3 blocks.
func benchBlockMatrix(blockRows int) *CSR {
	coo := NewCOO(3*blockRows, 3*blockRows)
	for bi := 0; bi < blockRows; bi++ {
		for _, bj := range []int{bi - 1, bi, bi + 1} {
			if bj < 0 || bj >= blockRows {
				continue
			}
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					coo.Append(3*bi+r, 3*bj+c, float64(1+r+c)-0.5*float64(bi%7))
				}
			}
		}
	}
	return coo.ToCSR()
}

// BenchmarkSpMVFormats is the record the format rule is judged on: one
// product through ParSpMV per bindable kernel — CSR, SELL, order-exact
// MSR — on the bench matrix families, and the rule row, what
// ChoiceAuto binds, which must equal the per-family best of the three
// within noise. The keys (and their 0-alloc gates) are pinned by
// scripts/benchguard.sh.
func BenchmarkSpMVFormats(b *testing.B) {
	families := []struct {
		name string
		a    *CSR
	}{
		{"stencil", benchOperator(100)},             // n=10,000, nnz≈49,600
		{"banded", Tridiag(30000, -1.25, 4, -0.75)}, // nnz≈90,000
		{"random", RandomUnsymmetric(20000, 8, 3)},  // nnz≈160,000
		{"block3", benchBlockMatrix(2000)},          // n=6,000, nnz≈54,000
	}
	for _, fam := range families {
		a := fam.a
		x := RandomVector(a.Cols, 1)
		y := make([]float64, a.Rows)
		msr, split, err := MSROrderedFromCSR(a)
		if err != nil {
			b.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			bind func(k *ParSpMV)
		}{
			{"CSR", func(k *ParSpMV) { k.BindCSR(a, false) }},
			{"SELL", func(k *ParSpMV) { k.BindSELL(SELLFromCSR(a, TunedSELLChunk(a.Rows, 1)), false, 1) }},
			{"MSR-ordered", func(k *ParSpMV) { k.BindMSROrdered(msr, split, false) }},
			{"rule", func(k *ParSpMV) { k.Bind(a, false, ChoiceAuto, 1) }},
		} {
			var k ParSpMV
			tc.bind(&k)
			b.Run(fam.name+"/"+tc.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(a.NNZ() * 8))
				for i := 0; i < b.N; i++ {
					k.Apply(nil, y, x)
				}
			})
		}
	}
}

func BenchmarkCOOToCSR(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{50, 100, 200} {
		coo := benchOperator(n).ToCOO()
		b.Run(fmt.Sprintf("n=%d", n*n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coo.ToCSR()
			}
		})
	}
}

func BenchmarkTranspose(b *testing.B) {
	b.ReportAllocs()
	a := benchOperator(100)
	b.ResetTimer() // the operator's own allocations are not the subject's
	for i := 0; i < b.N; i++ {
		a.Transpose()
	}
}

func BenchmarkMultiply(b *testing.B) {
	b.ReportAllocs()
	a := benchOperator(60)
	for i := 0; i < b.N; i++ {
		if _, err := Multiply(a, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMSRConversion(b *testing.B) {
	b.ReportAllocs()
	a := benchOperator(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MSRFromCSR(a); err != nil {
			b.Fatal(err)
		}
	}
}
