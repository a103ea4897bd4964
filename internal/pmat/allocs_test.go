package pmat

import (
	"runtime/debug"
	"testing"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// TestNewMatAllocsConstant extends sparse's TestConverterAllocsConstant
// rule to NewMat on one rank: the same allocation count at n = 100 /
// 1,600 / 25,600.
func TestNewMatAllocsConstant(t *testing.T) {
	// A collection mid-count would add the runtime's own allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run(t, 1, func(c *comm.Comm) {
		var counts []float64
		for _, side := range []int{10, 40, 160} {
			a := sparse.Laplace2D(side, side)
			l, err := EvenLayout(c, a.Rows)
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, testing.AllocsPerRun(3, func() { NewMat(l, a) }))
		}
		if counts[1] != counts[0] || counts[2] != counts[0] {
			t.Errorf("NewMat allocates %v objects at n = 100 / 1,600 / 25,600, want one constant", counts)
		}
	})
}
