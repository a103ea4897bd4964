package slu

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/sparse"
)

// BenchmarkFactorOrderings quantifies the fill-reducing ordering choice
// (the "ordering" LISI parameter of the direct component).
func BenchmarkFactorOrderings(b *testing.B) {
	b.ReportAllocs()
	a := sparse.Laplace2D(40, 40) // n = 1,600
	for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderMinDegree} {
		b.Run(ord.String(), func(b *testing.B) {
			b.ReportAllocs()
			var nnz int
			for i := 0; i < b.N; i++ {
				f, err := Factor(a, Options{ColPerm: ord, PivotThreshold: 1, Equilibrate: false})
				if err != nil {
					b.Fatal(err)
				}
				nnz = f.NNZ()
			}
			b.ReportMetric(float64(nnz), "factor-nnz")
		})
	}
}

// BenchmarkTriangularSolve measures the per-RHS cost after factorization
// (use case §5.2c: many right-hand sides amortize one factorization).
func BenchmarkTriangularSolve(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{20, 40} {
		a := sparse.Laplace2D(n, n)
		f, err := Factor(a, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rhs := sparse.RandomVector(a.Rows, 1)
		b.Run(fmt.Sprintf("n=%d", a.Rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.Solve(rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOrderingAlgorithms isolates the symbolic orderings on the
// synthetic Laplacian and on the two benchmark operators. An ordering
// allocates a fixed number of O(n)/O(nnz) slices — never O(fill) — so
// scripts/benchguard.sh gates the ::allocs keys exactly. An ordering
// runs long enough that b.N is 1 or 2, where a GC cycle in the timed
// loop adds the runtime's own allocations to the count (fem-16/mmd read
// 15 to 22 for 14). So allocs/op is counted apart, with the collector
// off, as the *AllocsConstant tests count.
func BenchmarkOrderingAlgorithms(b *testing.B) {
	b.ReportAllocs()
	stencil, _, err := mesh.PaperProblem(100).GenerateGlobal()
	if err != nil {
		b.Fatal(err)
	}
	fem, _, err := mesh.DefaultFEMProblem(16, 7).GenerateGlobal()
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		a    *sparse.CSR
	}{{"laplace-50", sparse.Laplace2D(50, 50)}, {"stencil-100", stencil}, {"fem-16", fem}} {
		for _, ord := range []Ordering{OrderRCM, OrderMinDegree} {
			b.Run(m.name+"/"+ord.String(), func(b *testing.B) {
				b.ReportAllocs()
				order := func() {
					if _, err := ComputeOrdering(m.a, ord); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < b.N; i++ {
					order()
				}
				b.StopTimer()
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				b.ReportMetric(leastAllocs(1, order), "allocs/op")
			})
		}
	}
}

// leastAllocs is the least of three testing.AllocsPerRun(runs, f)
// counts. AllocsPerRun counts every goroutine's mallocs, so a stray
// allocation elsewhere in the binary only ever adds to one count, while
// an allocation f itself makes shows in every one.
func leastAllocs(runs int, f func()) float64 {
	least := testing.AllocsPerRun(runs, f)
	for range 2 {
		least = min(least, testing.AllocsPerRun(runs, f))
	}
	return least
}

// BenchmarkRefactorSamePattern is use case §5.2d at the size the
// end-to-end benchmark runs it (stencil grid 100): analyse once, then
// numeric phases into the same LU for a sequence of same-pattern value
// sets. The analysis and the L/U storage are reused, so a refresh
// allocates nothing — scripts/benchguard.sh gates ::allocs exactly.
func BenchmarkRefactorSamePattern(b *testing.B) {
	a, _, err := mesh.PaperProblem(100).GenerateGlobal()
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	sym, err := Analyze(a, opts.ColPerm)
	if err != nil {
		b.Fatal(err)
	}
	f := new(LU)
	if _, err := sym.factorInto(f, a, opts); err != nil {
		b.Fatal(err)
	}
	fresh := a.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scale := 1 + 1e-3*float64(i%7)
		for k, v := range a.Vals {
			fresh.Vals[k] = v * scale
		}
		if !sym.matches(fresh, opts.ColPerm) {
			b.Fatal("pattern moved")
		}
		if _, err := sym.factorInto(f, fresh, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefactorPivotsMove is the refresh the replay cannot serve: two
// value sets on the stencil's pattern whose row permutations differ,
// alternating, so every iteration validates the recorded pivots, fails and
// falls back to the full pass — into the same storage, which by the second
// round has seen both structures. scripts/benchguard.sh gates ::allocs
// at zero.
func BenchmarkRefactorPivotsMove(b *testing.B) {
	a, _, err := mesh.PaperProblem(100).GenerateGlobal()
	if err != nil {
		b.Fatal(err)
	}
	moved := a.Clone()
	for i := 0; i < moved.Rows; i += 1000 { // a diagonal too small for the threshold
		moved.Vals[entryIndex(b, moved, i, i)] *= 1e-3
	}
	sets := [2]*sparse.CSR{a, moved}
	opts := DefaultOptions()
	sym, err := Analyze(a, opts.ColPerm)
	if err != nil {
		b.Fatal(err)
	}
	f := new(LU)
	refresh := func(i int, want numericPass) {
		pass, err := sym.factorInto(f, sets[i%2], opts)
		if err != nil {
			b.Fatal(err)
		}
		if pass != want {
			b.Fatalf("numeric pass %d, want %d", pass, want)
		}
	}
	refresh(0, passFull)
	refresh(1, passFellBack)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refresh(i, passFellBack)
	}
}

// BenchmarkTriSolveWorkers measures the level-scheduled triangular
// solves against the serial column sweeps on one factorization. w=1
// must stay within noise of the serial sweeps and every variant must
// stay allocation-free per solve — scripts/benchguard.sh gates the
// allocs/op of every sub-benchmark at zero.
func BenchmarkTriSolveWorkers(b *testing.B) {
	a := sparse.Laplace2D(60, 60) // n = 3,600
	rhs := sparse.RandomVector(a.Rows, 1)
	x := make([]float64, a.Rows)
	for _, workers := range []int{0, 1, 4} {
		name := "serial"
		if workers > 0 {
			name = fmt.Sprintf("w=%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			f, err := Factor(a, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if workers > 0 {
				p := par.New(workers)
				defer p.Close()
				f.EnableLevels(p)
			}
			if err := f.SolveInto(x, rhs); err != nil { // build scratch outside the timer
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.SolveInto(x, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
