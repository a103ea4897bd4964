package pmat

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/par"
	"repro/internal/sparse"
)

// BenchmarkApply measures the distributed SpMV — ghost exchange plus
// local product — the inner kernel of every iterative solve in this
// repository.
func BenchmarkApply(b *testing.B) {
	b.ReportAllocs()
	global := sparse.Laplace2D(100, 100) // n = 10,000
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			w, err := comm.NewWorld(p)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(global.NNZ() * 8))
			if err := w.Run(func(c *comm.Comm) {
				l, m := distribute(c, global)
				x := make([]float64, l.LocalN)
				y := make([]float64, l.LocalN)
				for i := range x {
					x[i] = 1
				}
				c.Barrier()
				for i := 0; i < b.N; i++ {
					m.Apply(y, x)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkDot measures the distributed inner product (one allreduce).
func BenchmarkDot(b *testing.B) {
	b.ReportAllocs()
	for _, p := range []int{2, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			w, err := comm.NewWorld(p)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Run(func(c *comm.Comm) {
				l, _ := EvenLayout(c, 10000)
				x := make([]float64, l.LocalN)
				for i := 0; i < b.N; i++ {
					Dot(c, x, x)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkPlanBuild measures the ghost-plan construction (matrix
// assembly cost in the CCA path).
func BenchmarkPlanBuild(b *testing.B) {
	b.ReportAllocs()
	global := sparse.Laplace2D(60, 60)
	w, err := comm.NewWorld(4)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(func(c *comm.Comm) {
		l, _ := EvenLayout(c, global.Rows)
		local := global.SubMatrix(l.Start, l.Start+l.LocalN)
		for i := 0; i < b.N; i++ {
			if _, err := NewMat(l, local); err != nil {
				b.Fatal(err)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkApplyAllocs pins the zero-allocation steady-state SpMV on a
// multi-rank world: after a warm-up Apply has sized the plan's send
// buffers and primed the comm payload pool, the timed region must not
// allocate. scripts/benchguard.sh gates this benchmark's allocs/op (at
// zero) alongside its ns/op.
func BenchmarkApplyAllocs(b *testing.B) {
	b.ReportAllocs()
	global := sparse.Laplace2D(40, 40)
	w, err := comm.NewWorld(4)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(func(c *comm.Comm) {
		l, m := distribute(c, global)
		x := make([]float64, l.LocalN)
		y := make([]float64, l.LocalN)
		for i := range x {
			x[i] = 1
		}
		for i := 0; i < 4; i++ {
			m.Apply(y, x) // prime the pool past the in-flight mark
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer() // drop setup allocations from the alloc count
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			m.Apply(y, x)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkApplyWorkers measures the intra-rank worker pool on the
// local SpMV: one rank (no ghost traffic), row-parallel interior
// product. w=1 must stay within noise of the serial path and both
// variants must stay allocation-free in steady state —
// scripts/benchguard.sh gates the allocs/op of every sub-benchmark at
// zero.
func BenchmarkApplyWorkers(b *testing.B) {
	global := sparse.Laplace2D(120, 120) // n = 14,400
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			w, err := comm.NewWorld(1)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(global.NNZ() * 8))
			if err := w.Run(func(c *comm.Comm) {
				l, m := distribute(c, global)
				p := par.New(workers)
				defer p.Close()
				m.SetPool(p)
				x := make([]float64, l.LocalN)
				y := make([]float64, l.LocalN)
				for i := range x {
					x[i] = 1
				}
				for i := 0; i < 4; i++ {
					m.Apply(y, x) // warm the pool and the plan buffers
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Apply(y, x)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkOrthogonalize measures one Arnoldi step's modified
// Gram–Schmidt — the bulk of a GMRES iteration's vector work — on one
// rank at local n = 5,000 (a rank's share of the 2-rank grid-100
// stencil) against 1, 15 and 30 basis vectors. It must not allocate:
// scripts/benchguard.sh gates its allocs/op at zero.
func BenchmarkOrthogonalize(b *testing.B) {
	const n = 5000
	for _, k := range []int{1, 15, 30} {
		b.Run(fmt.Sprintf("basis=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			w, err := comm.NewWorld(1)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Run(func(c *comm.Comm) {
				red := NewReducer(c)
				basis := make([][]float64, k)
				for i := range basis {
					basis[i] = sparse.RandomVector(n, int64(i+1))
				}
				v := sparse.RandomVector(n, 0)
				hcol := make([]float64, k+1)
				orthogonalize(red, v, basis, hcol) // warm the collective
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					orthogonalize(red, v, basis, hcol)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}
