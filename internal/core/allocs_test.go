package core

import (
	"context"
	"math"
	"runtime"
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
			counts = append(counts, leastAllocs(3, func() {
				mustOK(t, s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, n+1, a.NNZ()), "SetupMatrix")
			}))
		}
		if counts[1] != counts[0] || counts[2] != counts[0] {
			t.Errorf("SetupMatrix(CSR) allocates %v objects at n = 100 / 1,600 / 25,600, want one constant", counts)
		}
	})
}

// leastAllocs is the least of three testing.AllocsPerRun(runs, f)
// counts. AllocsPerRun counts every goroutine's mallocs, so a stray
// allocation elsewhere in the test binary only ever adds to one count,
// while an allocation f itself makes shows in every one.
func leastAllocs(runs int, f func()) float64 {
	least := testing.AllocsPerRun(runs, f)
	for i := 1; i < allocSamples; i++ {
		least = min(least, testing.AllocsPerRun(runs, f))
	}
	return least
}

// allocSamples is how many counts leastAllocs takes.
const allocSamples = 3

// TestFirstSolveAllocsConstant extends the rule one call further: the
// first Solve after a SetupMatrix — the one that turns the staged rows
// into the backend's operator — allocates the same number of objects at
// n = 100 / 1,600 / 25,600. preconditioner=none and maxits=1 keep the
// backend's own set-up and iteration out of the count.
func TestFirstSolveAllocsConstant(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, be := range assembledBackends {
		if be.name == "superlu" {
			continue // no iteration to cut short: the factor is the solve
		}
		t.Run(be.name, func(t *testing.T) {
			run(t, 1, func(c *comm.Comm) {
				var counts []float64
				for _, side := range []int{10, 40, 160} {
					a := sparse.Laplace2D(side, side)
					n := a.Rows
					s := be.open()
					setupComponent(t, c, s, a, onesFor(a))
					mustOK(t, s.Set("preconditioner", "none"), "Set")
					mustOK(t, s.Set("maxits", "1"), "Set")
					x, status := make([]float64, n), make([]float64, StatusLen)
					stage := func() {
						mustOK(t, s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, n+1, a.NNZ()), "SetupMatrix")
					}
					s.Solve(x, status, n, StatusLen) // configure the backend once
					both := leastAllocs(3, func() {
						stage()
						s.Solve(x, status, n, StatusLen)
					})
					counts = append(counts, both-leastAllocs(3, stage))
				}
				// Under -race sync.Pool drops a quarter of its Puts, so a
				// pooled comm payload may be made again: a few objects of
				// slack there, none without it.
				slack := 0.0
				if raceEnabled {
					slack = steadyStateAllocBound
				}
				if math.Abs(counts[1]-counts[0]) > slack || math.Abs(counts[2]-counts[0]) > slack {
					t.Errorf("the first Solve after SetupMatrix allocates %v objects at n = 100 / 1,600 / 25,600, want one constant", counts)
				}
			})
		})
	}
}

// TestGMRESRestartCostsTheStepsTaken: a restart length far past the
// iterations a solve takes costs no more memory than a short one,
// because the GMRES basis and Hessenberg grow a step at a time. Both
// solves converge on the same operator; the bytes are the first
// Session.Solve's, which builds the workspace.
func TestGMRESRestartCostsTheStepsTaken(t *testing.T) {
	a, b := paperSystem(8)(t)
	solveBytes := func(restart string) uint64 {
		var bytes uint64
		run(t, 1, func(c *comm.Comm) {
			params := map[string]string{"solver": "gmres", "preconditioner": "jacobi", "restart": restart, "tol": "1e-8"}
			s, l := openOn(t, c, "petsc", SessionOptions{Params: params}, a, b)
			defer s.Close()
			x := make([]float64, l.LocalN)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := s.Solve(context.Background(), x)
			runtime.ReadMemStats(&after)
			if err != nil || !res.Converged {
				t.Fatalf("restart=%s: converged=%v err=%v", restart, res.Converged, err)
			}
			bytes = after.TotalAlloc - before.TotalAlloc
		})
		return bytes
	}
	short, long := solveBytes("30"), solveBytes("2000")
	if long > 2*short {
		t.Errorf("restart=2000 allocates %d bytes, restart=30 %d: want at most twice", long, short)
	}
	t.Logf("first Solve: %d bytes at restart=30, %d at restart=2000", short, long)
}
