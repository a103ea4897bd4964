package aztec

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/sparse"
)

// BenchmarkILUT quantifies the dual-threshold factorization across drop
// tolerances (the AZDrop/AZIlutFill parameter space of the Trilinos-role
// component), and at the component's defaults (drop 0, fill 1) on the two
// operators of the end-to-end benchmark. scripts/benchguard.sh gates the
// allocs/op of every case: a build allocates a fixed handful of slices.
func BenchmarkILUT(b *testing.B) {
	b.ReportAllocs()
	run := func(name string, a *sparse.CSR, drop, fill float64) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var nnz int
			build := func() {
				f, err := NewILUT(a, drop, fill)
				if err != nil {
					b.Fatal(err)
				}
				nnz = f.NNZ()
			}
			for i := 0; i < b.N; i++ {
				build()
			}
			b.StopTimer()
			b.ReportMetric(float64(nnz), "factor-nnz")
			// b.N is small here, so one GC cycle in the timed loop adds
			// the runtime's own allocations to allocs/op: count apart,
			// with the collector off.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b.ReportMetric(leastAllocs(1, build), "allocs/op")
		})
	}
	lap := sparse.Laplace2D(60, 60)
	for _, drop := range []float64{0, 0.001, 0.01} {
		run(fmt.Sprintf("drop=%g", drop), lap, drop, 3)
	}
	fem, _, err := mesh.DefaultFEMProblem(16, 7).GenerateGlobal()
	if err != nil {
		b.Fatal(err)
	}
	run("fem-16", fem, 0, 1)
	stencil, _, err := mesh.PaperProblem(100).GenerateGlobal()
	if err != nil {
		b.Fatal(err)
	}
	run("stencil-100", stencil, 0, 1)
}

// BenchmarkAztecSolvers measures one full Iterate per AZ solver at fixed
// tolerance.
func BenchmarkAztecSolvers(b *testing.B) {
	b.ReportAllocs()
	global := sparse.Laplace2D(40, 40)
	w, err := comm.NewWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	for name, solver := range map[string]int{
		"cg": AZCG, "gmres": AZGMRES, "cgs": AZCGS, "bicgstab": AZBiCGStab,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			if err := w.Run(func(c *comm.Comm) {
				crs := buildCrs(c, global)
				l := crs.RowMap().Layout()
				rhs := make([]float64, l.LocalN)
				for i := range rhs {
					rhs[i] = 1
				}
				x := make([]float64, l.LocalN)
				for i := 0; i < b.N; i++ {
					s := NewSolver(c)
					s.SetUserMatrix(crs)
					s.Options()[AZSolver] = solver
					s.Options()[AZPrecond] = AZDomDecomp
					for j := range x {
						x[j] = 0
					}
					if err := s.Iterate(x, rhs, 50000, 1e-8); err != nil {
						b.Fatal(err)
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFillComplete measures assembly freezing (plan construction).
func BenchmarkFillComplete(b *testing.B) {
	b.ReportAllocs()
	global := sparse.Laplace2D(50, 50)
	w, err := comm.NewWorld(4)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(func(c *comm.Comm) {
		m, err := evenMap(c, global.Rows)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			a := NewCrsMatrix(m)
			for g := m.MinMyGID(); g < m.MinMyGID()+m.NumMyElements(); g++ {
				cols, vals := global.RowView(g)
				if err := a.InsertGlobalValues(g, cols, vals); err != nil {
					b.Fatal(err)
				}
			}
			if err := a.FillComplete(); err != nil {
				b.Fatal(err)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}
