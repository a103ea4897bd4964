package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/pmat"
)

// TestSessionOnConcurrentWorlds is the door Initialize(comm) exists for
// (paper §6.3): a component handed the communicator it runs on. Two
// independent 2-rank worlds each open their own petsc Session and solve
// stencil-16 at the same time; both must reproduce a lone 2-rank world's
// iteration count and solution bit for bit.
func TestSessionOnConcurrentWorlds(t *testing.T) {
	a, _ := stencil16.sys(t)
	xstar, b := manufactured(a)
	solve := func(c *comm.Comm) (int, []float64) {
		s, l := openOn(t, c, "petsc", SessionOptions{Params: iterativeParams}, a, b)
		defer s.Close()
		x := make([]float64, l.LocalN)
		res, err := s.Solve(context.Background(), x)
		checkConverged(t, "concurrent", l, res, err, x, xstar)
		return res.Iterations, pmat.AllGather(l, x)
	}

	var wantIts int
	var want []float64
	run(t, 2, func(c *comm.Comm) {
		its, x := solve(c)
		if c.Rank() == 0 {
			wantIts, want = its, x
		}
	})

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		w, err := comm.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(func(c *comm.Comm) {
				its, x := solve(c)
				if its != wantIts {
					t.Errorf("world %d rank %d: %d iterations, %d on a lone world", i, c.Rank(), its, wantIts)
				}
				for k := range want {
					if math.Float64bits(x[k]) != math.Float64bits(want[k]) {
						t.Errorf("world %d rank %d: x[%d] = %x, lone world %x", i, c.Rank(), k, math.Float64bits(x[k]), math.Float64bits(want[k]))
						return
					}
				}
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("world %d: %v", i, err)
		}
	}
}
