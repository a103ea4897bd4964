// Package repro_test hosts the top-level benchmark harness: one
// testing.B benchmark per evaluation artifact of the CCA-LISI paper
// (Figure 5 and Table 1), plus ablation benchmarks for the design
// decisions of §6 (r-array argument passing, separated distribution
// setters, and ports indirection).
//
// The benchmarks run reduced problem sizes so `go test -bench=.`
// completes in minutes on one core; `go run ./cmd/lisi-bench` executes
// the faithful paper sizes (n=200 / nnz up to 798,400) and prints the
// paper's tables and series.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cca"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
)

// benchGrid keeps the per-iteration cost moderate (n=60 ⇒ nnz=17,760).
const benchGrid = 60

// BenchmarkFigure5 regenerates Figure 5's three panels: CCA vs NonCCA
// execution time per solver component across processor counts.
func BenchmarkFigure5(b *testing.B) {
	b.ReportAllocs()
	for _, solver := range bench.Solvers() {
		for _, procs := range bench.PaperProcs() {
			for _, path := range []string{"CCA", "NonCCA"} {
				name := fmt.Sprintf("%s/p=%d/%s", solver, procs, path)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					var lastIters int
					for i := 0; i < b.N; i++ {
						var m bench.Measurement
						var err error
						if path == "CCA" {
							m, err = bench.RunCCA(context.Background(), procs, solver, benchGrid, bench.DefaultParams())
						} else {
							m, err = bench.RunNonCCA(context.Background(), procs, solver, benchGrid, bench.DefaultParams())
						}
						if err != nil {
							b.Fatal(err)
						}
						lastIters = m.Iterations
					}
					b.ReportMetric(float64(lastIters), "iters")
				})
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1's rows (reduced sizes): the
// PETSc-role component with and without the LISI interface across
// problem sizes, on the paper's 8 processors.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for _, nnz := range []int{12300, 49600} {
		n, err := mesh.GridForNNZ(nnz)
		if err != nil {
			b.Fatal(err)
		}
		for _, path := range []string{"CCA", "NonCCA"} {
			b.Run(fmt.Sprintf("nnz=%d/%s", nnz, path), func(b *testing.B) {
				b.ReportAllocs()
				var lastIters int
				for i := 0; i < b.N; i++ {
					var m bench.Measurement
					var err error
					if path == "CCA" {
						m, err = bench.RunCCA(context.Background(), 8, bench.SolverKSP, n, bench.DefaultParams())
					} else {
						m, err = bench.RunNonCCA(context.Background(), 8, bench.SolverKSP, n, bench.DefaultParams())
					}
					if err != nil {
						b.Fatal(err)
					}
					lastIters = m.Iterations
				}
				b.ReportMetric(float64(lastIters), "iters")
			})
		}
	}
}

// BenchmarkAblationRArray measures the §6.2 decision: passing assembled
// arrays by reference (r-array semantics, what LISI does) versus copying
// them first (normal SIDL array semantics). The measured operation is
// the full SetupMatrix staging path of the ksp component.
func BenchmarkAblationRArray(b *testing.B) {
	b.ReportAllocs()
	p := mesh.PaperProblem(80) // nnz = 31,680
	a, _, err := p.GenerateGlobal()
	if err != nil {
		b.Fatal(err)
	}
	w, err := comm.NewWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"rarray", "sidl-copy"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			if err := w.Run(func(c *comm.Comm) {
				s := core.NewKSPComponent()
				s.Initialize(c)
				s.SetStartRow(0)
				s.SetLocalRows(a.Rows)
				s.SetGlobalCols(a.Cols)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					vals, rp, ci := a.Vals, a.RowPtr, a.ColInd
					if mode == "sidl-copy" {
						vals = append([]float64(nil), a.Vals...)
						rp = append([]int(nil), a.RowPtr...)
						ci = append([]int(nil), a.ColInd...)
					}
					if code := s.SetupMatrix(vals, rp, ci, core.CSR, len(rp), a.NNZ()); code != core.OK {
						b.Fatalf("SetupMatrix: %d", code)
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationSeparatedSetters measures the §6.3 decision:
// distribution parameters set once through dedicated methods versus
// re-validated/re-passed before every data call.
func BenchmarkAblationSeparatedSetters(b *testing.B) {
	b.ReportAllocs()
	p := mesh.PaperProblem(40)
	a, bb, err := p.GenerateGlobal()
	if err != nil {
		b.Fatal(err)
	}
	w, err := comm.NewWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"set-once", "per-call"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			if err := w.Run(func(c *comm.Comm) {
				s := core.NewKSPComponent()
				s.Initialize(c)
				s.SetStartRow(0)
				s.SetLocalRows(a.Rows)
				s.SetGlobalCols(a.Cols)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "per-call" {
						// What the rejected design would do before every
						// data-carrying call.
						s.SetStartRow(0)
						s.SetLocalRows(a.Rows)
						s.SetLocalNNZ(a.NNZ())
						s.SetGlobalCols(a.Cols)
					}
					if code := s.SetupRHS(bb, a.Rows, 1); code != core.OK {
						b.Fatalf("SetupRHS: %d", code)
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationPortIndirection measures the CCA ports mechanism
// itself: invoking a component method through GetPort + interface
// dispatch versus calling the component directly — the per-call price of
// the framework layer whose constancy Table 1 demonstrates.
func BenchmarkAblationPortIndirection(b *testing.B) {
	b.ReportAllocs()
	w, err := comm.NewWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("through-port", func(b *testing.B) {
		b.ReportAllocs()
		if err := w.Run(func(c *comm.Comm) {
			fw := cca.NewFramework(c)
			if err := fw.CreateInstance("driver", core.ClassDriver); err != nil {
				b.Fatal(err)
			}
			if err := fw.CreateInstance("solver", core.ClassKSPSolver); err != nil {
				b.Fatal(err)
			}
			if err := fw.Connect("driver", "solver", "solver", core.PortSparseSolver); err != nil {
				b.Fatal(err)
			}
			solverComp, _ := fw.Instance("solver")
			s := solverComp.(core.SparseSolver)
			s.Initialize(c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fetch the port and make one cheap call, as the driver
				// does for every interface interaction.
				port, err := fw.Instance("solver")
				if err != nil {
					b.Fatal(err)
				}
				if code := port.(core.SparseSolver).SetStartRow(0); code != core.OK {
					b.Fatal("SetStartRow failed")
				}
			}
		}); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		if err := w.Run(func(c *comm.Comm) {
			s := core.NewKSPComponent()
			s.Initialize(c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if code := s.SetStartRow(0); code != core.OK {
					b.Fatal("SetStartRow failed")
				}
			}
		}); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkMultigridVsSingleLevel is the ablation for the multilevel
// extension (§5.2e): V-cycle multigrid against single-level GMRES+ILU on
// the same problem and tolerance.
func BenchmarkMultigridVsSingleLevel(b *testing.B) {
	b.ReportAllocs()
	const n = 63 // 2^6-1 coarsens fully
	p := mesh.PaperProblem(n)
	mgParams := map[string]string{"tol": "1e-6"}
	w, err := comm.NewWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	runOne := func(b *testing.B, class string, params map[string]string) {
		if err := w.Run(func(c *comm.Comm) {
			fw := cca.NewFramework(c)
			fw.CreateInstance("driver", core.ClassDriver)
			fw.CreateInstance("solver", class)
			if err := fw.Connect("driver", "solver", "solver", core.PortSparseSolver); err != nil {
				b.Fatal(err)
			}
			drv, _ := fw.Instance("driver")
			driver := drv.(*core.DriverComponent)
			c.Barrier()
			if _, err := driver.SolveProblem(p, core.CSR, params); err != nil {
				b.Fatal(err)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("multigrid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOne(b, core.ClassMGSolver, mgParams)
		}
	})
	b.Run("gmres-ilu", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOne(b, core.ClassKSPSolver, bench.DefaultParams())
		}
	})
}
