package pmat_test

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

var (
	allCSR  = pmat.FormatInfo{Interior: sparse.FmtCSR, Boundary: sparse.FmtCSR}
	sellCSR = pmat.FormatInfo{Interior: sparse.FmtSELL, Boundary: sparse.FmtCSR}
)

// formatCases is the table of block shapes the format rule is pinned
// on: want[r] is what rank r's matrix must bind. The benchmark
// workloads' own operators (stencil grid 100, FEM mesh 16) have square
// interior blocks with several entries per row, which bind SELL; a
// one-rank boundary block is empty and the stencil's two-rank one is a
// 5000×100 ghost block with 100 entries, which both stay CSR; and a
// rank that owns no rows has nothing to convert.
var formatCases = []struct {
	name   string
	global func(t *testing.T) *sparse.CSR
	want   []pmat.FormatInfo
}{
	{"stencil-100/1-rank", paperOperator(100), []pmat.FormatInfo{sellCSR}},
	{"stencil-100/2-ranks", paperOperator(100), []pmat.FormatInfo{sellCSR, sellCSR}},
	{"fem-16/1-rank", femOperator(16), []pmat.FormatInfo{sellCSR}},
	{"fem-16/2-ranks", femOperator(16), []pmat.FormatInfo{sellCSR, sellCSR}},
	{"rank-without-rows", func(*testing.T) *sparse.CSR { return sparse.Identity(1) }, []pmat.FormatInfo{sellCSR, allCSR}},
}

func paperOperator(gridN int) func(*testing.T) *sparse.CSR {
	return func(t *testing.T) *sparse.CSR {
		a, _, err := mesh.PaperProblem(gridN).GenerateGlobal()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
}

func femOperator(n int) func(*testing.T) *sparse.CSR {
	return func(t *testing.T) *sparse.CSR {
		a, _, err := mesh.DefaultFEMProblem(n, 7).GenerateGlobal()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
}

// onRanks builds the distributed matrix of global on p ranks and runs
// fn on each.
func onRanks(t *testing.T, p int, global *sparse.CSR, fn func(c *comm.Comm, l *pmat.Layout, m *pmat.Mat)) {
	t.Helper()
	w, err := comm.NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, global.Rows)
		if err != nil {
			t.Error(err)
			return
		}
		m, err := pmat.NewMat(l, global.SubMatrix(l.Start, l.Start+l.LocalN))
		if err != nil {
			t.Error(err)
			return
		}
		fn(c, l, m)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFormatRuleBinds pins which kernels a matrix binds on its own —
// no SetFormat call — for every block shape and for 1 and 2 workers:
// the rule reads only (Rows, NNZ) of each block, so the answer is the
// same on every run, rank and host.
func TestFormatRuleBinds(t *testing.T) {
	for _, tc := range formatCases {
		t.Run(tc.name, func(t *testing.T) {
			onRanks(t, len(tc.want), tc.global(t), func(c *comm.Comm, _ *pmat.Layout, m *pmat.Mat) {
				if got := m.Format(); got != tc.want[c.Rank()] {
					t.Errorf("rank %d, no pool: bound %+v, want %+v", c.Rank(), got, tc.want[c.Rank()])
				}
				for _, workers := range []int{1, 2} {
					pool := par.New(workers)
					m.SetPool(pool)
					if got := m.Format(); got != tc.want[c.Rank()] {
						t.Errorf("rank %d, workers=%d: bound %+v, want %+v", c.Rank(), workers, got, tc.want[c.Rank()])
					}
					m.SetPool(nil)
					pool.Close()
				}
			})
		})
	}
}

// TestSetFormatBitwiseAcrossFormats checks the contract that lets the
// rule bind SELL without moving a digest: on every block shape the
// distributed product under the rule is byte-identical to the one
// under the reference CSR kernels, for 1 and 2 workers. One matrix is
// taken through every pool and choice in turn, so the re-bind after a
// pool change is exercised too.
func TestSetFormatBitwiseAcrossFormats(t *testing.T) {
	for _, tc := range formatCases {
		t.Run(tc.name, func(t *testing.T) {
			global := tc.global(t)
			x := sparse.RandomVector(global.Rows, 11)
			x[0] = math.Copysign(0, -1)
			onRanks(t, len(tc.want), global, func(c *comm.Comm, l *pmat.Layout, m *pmat.Mat) {
				xl := x[l.Start : l.Start+l.LocalN]
				apply := func() []uint64 {
					y := make([]float64, l.LocalN)
					m.Apply(y, xl)
					bits := make([]uint64, len(y))
					for i, v := range y {
						bits[i] = math.Float64bits(v)
					}
					return bits
				}
				info, changed := m.SetFormat(sparse.ChoiceCSR)
				if !changed || info != allCSR {
					t.Errorf("rank %d: SetFormat(ChoiceCSR) = %+v, %v", c.Rank(), info, changed)
				}
				want := apply()
				for _, workers := range []int{1, 2} {
					pool := par.New(workers)
					m.SetPool(pool)
					for _, fc := range []sparse.FormatChoice{sparse.ChoiceAuto, sparse.ChoiceCSR} {
						info, changed := m.SetFormat(fc)
						if !changed {
							t.Errorf("rank %d: SetFormat(%v) after another choice did not rebind", c.Rank(), fc)
						}
						if fc == sparse.ChoiceAuto && info != tc.want[c.Rank()] {
							t.Errorf("rank %d, workers=%d: rule bound %+v, want %+v", c.Rank(), workers, info, tc.want[c.Rank()])
						}
						for i, got := range apply() {
							if got != want[i] {
								// Errorf, not Fatalf: the other rank is
								// waiting in the next Apply's exchange.
								t.Errorf("rank %d, workers=%d, choice %v: y[%d] = %x, serial CSR gives %x",
									c.Rank(), workers, fc, i, got, want[i])
								break
							}
						}
					}
					m.SetPool(nil)
					pool.Close()
				}
			})
		})
	}
}

// TestSetFormatCaching checks that re-applying the bound pool and
// choice is an allocation-free no-op, which is what lets components
// call SetPool on every solve.
func TestSetFormatCaching(t *testing.T) {
	for _, tc := range formatCases {
		if len(tc.want) != 1 {
			continue // the process-global malloc count needs a one-rank world
		}
		t.Run(tc.name, func(t *testing.T) {
			onRanks(t, 1, tc.global(t), func(_ *comm.Comm, _ *pmat.Layout, m *pmat.Mat) {
				pool := par.New(2)
				defer pool.Close()
				m.SetPool(pool)
				for _, fc := range []sparse.FormatChoice{sparse.ChoiceAuto, sparse.ChoiceCSR} {
					m.SetFormat(fc)
					allocs := testing.AllocsPerRun(20, func() {
						m.SetPool(pool)
						if _, changed := m.SetFormat(fc); changed {
							t.Error("re-applying the bound choice rebound")
						}
					})
					if allocs != 0 {
						t.Errorf("choice %v: steady-state SetPool+SetFormat allocates %v/op", fc, allocs)
					}
				}
			})
		})
	}
}
