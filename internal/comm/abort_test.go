package comm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// The Run regions below carry no wall-clock guard of their own: the
// observable symptom of an abort-path regression is a deadlocked Run,
// and go test -timeout catches that.

// TestAbortReleasesBarrier: a rank that panics while its peers sit in a
// barrier must release them.
func TestAbortReleasesBarrier(t *testing.T) {
	w, _ := NewWorld(4)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			panic("rank 2 failed")
		}
		c.Barrier()
		c.Barrier() // never completes; abort must raise ErrAborted here
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("Run error = %v, want the rank 2 panic", err)
	}
}

// TestAbortReleasesCollective: a rank that panics mid-collective (its
// peers already committed to the exchange slots) must release them.
func TestAbortReleasesCollective(t *testing.T) {
	w, _ := NewWorld(4)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			// Enter one collective so peers pass the first barrier, then
			// die before the next collective they all expect.
			c.AllReduceInt(1, OpSum)
			panic("rank 1 failed mid-sequence")
		}
		c.AllReduceInt(1, OpSum)
		c.AllReduceInt(2, OpSum) // rank 1 never arrives
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("Run error = %v, want the rank 1 panic", err)
	}
}

// TestAbortReleasesRecv: a panicking rank must release a peer blocked in
// a point-to-point receive that will never be matched.
func TestAbortReleasesRecv(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			panic("rank 0 failed before sending")
		}
		c.RecvFloat64s(0, 7)
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("Run error = %v, want the rank 0 panic", err)
	}
}

// TestDeadlineUnblocksBarrier: a rank blocked in a barrier its peer never
// joins must unblock when the region deadline passes, and RunContext must
// surface context.DeadlineExceeded.
func TestDeadlineUnblocksBarrier(t *testing.T) {
	w, _ := NewWorld(2)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := w.RunContext(ctx, func(c *Comm) {
		if c.Rank() == 1 {
			return // never joins the barrier
		}
		c.Barrier()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext error = %v, want context.DeadlineExceeded", err)
	}
	if !errors.Is(w.Cause(), context.DeadlineExceeded) {
		t.Fatalf("Cause() = %v, want context.DeadlineExceeded", w.Cause())
	}
}

// TestCancelUnblocksAllReduce: an explicit cancel must release ranks
// blocked inside a collective exchange.
func TestCancelUnblocksAllReduce(t *testing.T) {
	w, _ := NewWorld(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(20*time.Millisecond, cancel)
	err := w.RunContext(ctx, func(c *Comm) {
		if c.Rank() == 3 {
			return // the collective can never complete
		}
		c.AllReduceInt(1, OpSum)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
}

// TestCancelUnblocksRecv: a receive that will never be matched must
// unblock on cancellation even though only that one rank is blocked.
func TestCancelUnblocksRecv(t *testing.T) {
	w, _ := NewWorld(2)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := w.RunContext(ctx, func(c *Comm) {
		if c.Rank() == 0 {
			c.RecvFloat64s(1, 7) // rank 1 never sends
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext error = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunContextPreCancelled: a context that is already dead must fail the
// region promptly on the first communication attempt.
func TestRunContextPreCancelled(t *testing.T) {
	w, _ := NewWorld(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := w.RunContext(ctx, func(c *Comm) {
		c.Barrier()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
}

// TestRunAfterCancelReportsCause: the world stays poisoned after a
// cancellation, and later regions report the original cause instead of
// silently deadlocking or succeeding.
func TestRunAfterCancelReportsCause(t *testing.T) {
	w, _ := NewWorld(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = w.RunContext(ctx, func(c *Comm) { c.Barrier() })
	err := w.Run(func(c *Comm) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("second Run error = %v, want the recorded context.Canceled cause", err)
	}
}

// TestRunReportsStaleWorldAbort: a rank that dies on another world's
// abort — here a communicator kept from an aborted world — did not reach
// the end of its body, so Run must report it rather than succeed.
func TestRunReportsStaleWorldAbort(t *testing.T) {
	w1, _ := NewWorld(2)
	stale := make([]*Comm, 2)
	if err := w1.Run(func(c *Comm) { stale[c.Rank()] = c }); err != nil {
		t.Fatal(err)
	}
	w1.Abort()
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) { stale[c.Rank()].Barrier() })
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), ErrAborted.Error()) {
		t.Fatalf("Run error = %v, want a rank panicked on world 1's abort", err)
	}
	if w.Cause() != nil {
		t.Fatalf("Cause() = %v, want nil: world 2 was never cancelled", w.Cause())
	}
}
