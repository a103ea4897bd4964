package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// TestSetupMatrixCSRAllocsConstant extends sparse's
// TestConverterAllocsConstant rule to the CSR door: one SetupMatrix call
// allocates the same number of objects at n = 100 / 1,600 / 25,600.
func TestSetupMatrixCSRAllocsConstant(t *testing.T) {
	// A collection mid-count would add the runtime's own allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run(t, 1, func(c *comm.Comm) {
		var counts []float64
		for _, side := range []int{10, 40, 160} {
			a := sparse.Laplace2D(side, side)
			n := a.Rows
			s := NewKSPComponent()
			mustOK(t, s.Initialize(c), "Initialize")
			mustOK(t, s.SetStartRow(0), "SetStartRow")
			mustOK(t, s.SetLocalRows(n), "SetLocalRows")
			mustOK(t, s.SetGlobalCols(n), "SetGlobalCols")
			counts = append(counts, testing.AllocsPerRun(3, func() {
				mustOK(t, s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, n+1, a.NNZ()), "SetupMatrix")
			}))
		}
		if counts[1] != counts[0] || counts[2] != counts[0] {
			t.Errorf("SetupMatrix(CSR) allocates %v objects at n = 100 / 1,600 / 25,600, want one constant", counts)
		}
	})
}
