package aztec

import (
	"runtime/debug"
	"testing"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// TestFillCompleteAllocsConstant extends sparse's
// TestConverterAllocsConstant rule to FillComplete on one rank: the same
// allocation count at n = 100 / 1,600 / 25,600. Rows are inserted
// beforehand; only the freeze is measured.
func TestFillCompleteAllocsConstant(t *testing.T) {
	// A collection mid-count would add the runtime's own allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 2
	run(t, 1, func(c *comm.Comm) {
		var counts []float64
		for _, side := range []int{10, 40, 160} {
			a := sparse.Laplace2D(side, side)
			m, err := evenMap(c, a.Rows)
			if err != nil {
				t.Fatal(err)
			}
			staged := make([]*CrsMatrix, runs+1) // AllocsPerRun calls once more to warm up
			for k := range staged {
				staged[k] = NewCrsMatrix(m)
				for g := 0; g < a.Rows; g++ {
					cols, vals := a.RowView(g)
					if err := staged[k].InsertGlobalValues(g, cols, vals); err != nil {
						t.Fatal(err)
					}
				}
			}
			next := 0
			counts = append(counts, testing.AllocsPerRun(runs, func() {
				if err := staged[next].FillComplete(); err != nil {
					t.Fatal(err)
				}
				next++
			}))
		}
		if counts[1] != counts[0] || counts[2] != counts[0] {
			t.Errorf("FillComplete allocates %v objects at n = 100 / 1,600 / 25,600, want one constant", counts)
		}
	})
}
