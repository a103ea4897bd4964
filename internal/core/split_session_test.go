package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/pmat"
)

// TestSessionOnSplitCommunicator is the door Initialize(comm) exists for
// (paper §6.3): a component handed a sub-communicator. A 4-rank world
// splits by rank/2 and each half opens its own petsc Session and solves
// stencil-16 at the same time; both halves must reproduce a plain 2-rank
// world's iteration count and solution bit for bit.
func TestSessionOnSplitCommunicator(t *testing.T) {
	a, _ := stencil16.sys(t)
	xstar, b := manufactured(a)
	solve := func(c *comm.Comm) (int, []float64) {
		s, l := openOn(t, c, "petsc", SessionOptions{Params: iterativeParams}, a, b)
		defer s.Close()
		x := make([]float64, l.LocalN)
		res, err := s.Solve(context.Background(), x)
		checkConverged(t, "split", l, res, err, x, xstar)
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
	run(t, 4, func(c *comm.Comm) {
		sub := c.Split(c.Rank()/2, c.Rank())
		if sub.Size() != 2 || sub.Rank() != c.Rank()%2 {
			t.Fatalf("rank %d landed at %d of %d", c.Rank(), sub.Rank(), sub.Size())
		}
		its, x := solve(sub)
		if its != wantIts {
			t.Errorf("rank %d: %d iterations on the sub-communicator, %d on a 2-rank world", c.Rank(), its, wantIts)
		}
		for i := range want {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("rank %d: x[%d] = %x, 2-rank world %x", c.Rank(), i, math.Float64bits(x[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// TestSplitSessionCancelReleasesSibling: only one half carries a deadline;
// when it fires the abort poisons the communicator tree from the root, so
// the other half — deep in a solve that would never end — is released
// with the same cause instead of waiting for a peer that is gone.
func TestSplitSessionCancelReleasesSibling(t *testing.T) {
	w, err := comm.NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	var results [4]SolveResult
	var errs [4]error
	start := time.Now()
	runErr := w.Run(func(c *comm.Comm) {
		half := c.Rank() / 2
		sub := c.Split(half, c.Rank())
		l, err := pmat.EvenLayout(sub, 40)
		if err != nil {
			t.Error(err)
			return
		}
		s, err := OpenSession("petsc", sub, SessionOptions{Params: map[string]string{
			"solver": "gmres", "preconditioner": "none", "tol": "1e-300", "maxits": "1000000"}})
		if err != nil {
			t.Error(err)
			return
		}
		if half == 0 {
			s.SetTimeout(30 * time.Millisecond)
		}
		if err := s.SetupOperator(l, &slowOp{delay: 5 * time.Millisecond, start: l.Start}); err != nil {
			t.Error(err)
			return
		}
		rhs := make([]float64, l.LocalN)
		for i := range rhs {
			rhs[i] = 1
		}
		if err := s.SetupRHS(rhs, 1); err != nil {
			t.Error(err)
			return
		}
		results[c.Rank()], errs[c.Rank()] = s.Solve(context.Background(), make([]float64, l.LocalN))
	})
	if !errors.Is(runErr, context.DeadlineExceeded) {
		t.Errorf("Run error = %v, want the deadline as cause", runErr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("released after %v", elapsed)
	}
	for r, res := range results {
		if !res.Aborted || res.AbortReason != "deadline_exceeded" || !errors.Is(errs[r], context.DeadlineExceeded) {
			t.Errorf("rank %d (half %d): aborted=%v reason=%q err=%v, want a deadline abort", r, r/2, res.Aborted, res.AbortReason, errs[r])
		}
	}
}
