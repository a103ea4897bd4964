package aztec

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/sparse"
)

func rowMatrixOperators(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	fem, _, err := mesh.DefaultFEMProblem(6, 7).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*sparse.CSR{
		"laplace": sparse.Laplace2D(7, 5),
		"random":  sparse.RandomDiagDominant(41, 6, 3),
		"fem":     fem,
		"single":  sparse.Identity(1),
	}
}

// cooOfStaged is the COO route FillComplete used to take for rows that
// were not ascending: every staged entry through COO, sorted and merged
// by ToCSR.
func cooOfStaged(rows, cols int, stageCols [][]int, stageVals [][]float64) *sparse.CSR {
	coo := sparse.NewCOO(rows, cols)
	for lr := range stageCols {
		for k, j := range stageCols[lr] {
			coo.Append(lr, j, stageVals[lr][k])
		}
	}
	return coo.ToCSR()
}

// TestFillCompleteDirectMatchesCOO: FillComplete's concatenate-and-
// normalise path gives the matrix the COO route would have.
func TestFillCompleteDirectMatchesCOO(t *testing.T) {
	for name, global := range rowMatrixOperators(t) {
		for ranks := 1; ranks <= 3; ranks++ {
			if ranks > global.Rows {
				continue
			}
			run(t, ranks, func(c *comm.Comm) {
				m, err := evenMap(c, global.Rows)
				if err != nil {
					t.Fatal(err)
				}
				a := NewCrsMatrix(m)
				for g := m.MinMyGID(); g < m.MinMyGID()+m.NumMyElements(); g++ {
					cols, vals := global.RowView(g)
					if err := a.InsertGlobalValues(g, cols, vals); err != nil {
						t.Fatal(err)
					}
				}
				want := cooOfStaged(m.NumMyElements(), global.Cols, a.stageCols, a.stageVals)
				if err := a.FillComplete(); err != nil {
					t.Fatal(err)
				}
				if !a.dist.LocalRowsGlobal().Equal(want) {
					t.Errorf("%s on %d ranks: direct CSR differs from the COO route", name, ranks)
				}
			})
		}
	}
}

// TestFillCompleteFallsBackWhenNotAscending: a row staged out of order,
// in two calls, or with a repeated column must still come out sorted and
// merged, and the well-formed rows around it unchanged.
func TestFillCompleteFallsBackWhenNotAscending(t *testing.T) {
	global := sparse.Laplace2D(6, 4)
	shapes := map[string]func(a *CrsMatrix, g int, cols []int, vals []float64) error{
		"reversed": func(a *CrsMatrix, g int, cols []int, vals []float64) error {
			rc, rv := make([]int, len(cols)), make([]float64, len(vals))
			for k := range cols {
				rc[len(cols)-1-k], rv[len(cols)-1-k] = cols[k], vals[k]
			}
			return a.InsertGlobalValues(g, rc, rv)
		},
		"two-calls": func(a *CrsMatrix, g int, cols []int, vals []float64) error {
			// Upper half first, so the concatenation is not ascending.
			h := len(cols) / 2
			if err := a.InsertGlobalValues(g, cols[h:], vals[h:]); err != nil {
				return err
			}
			return a.InsertGlobalValues(g, cols[:h], vals[:h])
		},
		"duplicates": func(a *CrsMatrix, g int, cols []int, vals []float64) error {
			// Each entry in two halves: sorted but not strictly.
			half := make([]float64, len(vals))
			dc, dv := make([]int, 0, 2*len(cols)), make([]float64, 0, 2*len(cols))
			for k := range cols {
				half[k] = vals[k] / 2
				dc, dv = append(dc, cols[k], cols[k]), append(dv, half[k], half[k])
			}
			return a.InsertGlobalValues(g, dc, dv)
		},
	}
	for name, insert := range shapes {
		for ranks := 1; ranks <= 3; ranks++ {
			run(t, ranks, func(c *comm.Comm) {
				m, err := evenMap(c, global.Rows)
				if err != nil {
					t.Fatal(err)
				}
				a := NewCrsMatrix(m)
				for g := m.MinMyGID(); g < m.MinMyGID()+m.NumMyElements(); g++ {
					cols, vals := global.RowView(g)
					// Only the rank's middle row is misshapen: the check
					// must not stop at the first well-formed rows.
					if g == m.MinMyGID()+(m.NumMyElements()-1)/2 {
						err = insert(a, g, cols, vals)
					} else {
						err = a.InsertGlobalValues(g, cols, vals)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := a.FillComplete(); err != nil {
					t.Fatal(err)
				}
				lo, n := m.MinMyGID(), m.NumMyElements()
				if !a.dist.LocalRowsGlobal().Equal(global.SubMatrix(lo, lo+n)) {
					t.Errorf("%s on %d ranks: local CSR is not the sorted, merged rows", name, ranks)
				}
			})
		}
	}
}

// hiddenCrs hides the concrete type so rowMatrixDiagBlock cannot take
// the CrsMatrix route — what a user-defined RowMatrix looks like to it.
type hiddenCrs struct{ RowMatrix }

// TestDiagBlockFastPathMatchesGeneric: cutting the diagonal block out of
// the distributed matrix equals reading it row by row through the
// interface.
func TestDiagBlockFastPathMatchesGeneric(t *testing.T) {
	for name, global := range rowMatrixOperators(t) {
		for ranks := 1; ranks <= 3; ranks++ {
			if ranks > global.Rows {
				continue
			}
			run(t, ranks, func(c *comm.Comm) {
				a := buildCrs(c, global)
				fast, err := rowMatrixDiagBlock(a)
				if err != nil {
					t.Fatal(err)
				}
				generic, err := rowMatrixDiagBlock(hiddenCrs{a})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s on %d ranks, rank %d", name, ranks, c.Rank())
				if !fast.Equal(generic) {
					t.Errorf("%s: fast-path diagonal block differs from the generic one", label)
				}
				lo, n := a.RowMap().MinMyGID(), a.RowMap().NumMyElements()
				for lr := 0; lr < n; lr++ {
					cols, _ := fast.RowView(lr)
					gcols, _ := global.RowView(lo + lr)
					inBlock := 0
					for _, j := range gcols {
						if j >= lo && j < lo+n {
							inBlock++
						}
					}
					if len(cols) != inBlock {
						t.Fatalf("%s: row %d keeps %d entries, %d lie in the block", label, lr, len(cols), inBlock)
					}
				}
			})
		}
	}
	// An unfilled matrix has nothing to cut; the error comes from
	// the row-access route as before.
	run(t, 1, func(c *comm.Comm) {
		m, err := evenMap(c, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rowMatrixDiagBlock(NewCrsMatrix(m)); err == nil {
			t.Error("diagonal block of an unfilled matrix returned no error")
		}
	})
}
