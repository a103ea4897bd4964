package comm

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// hookFunc adapts a function to FaultHook for tests.
type hookFunc func(rank int, kind FaultKind, peer, tag int) FaultDecision

func (f hookFunc) Fault(rank int, kind FaultKind, peer, tag int) FaultDecision {
	return f(rank, kind, peer, tag)
}

// awaitGoroutines waits for the goroutine count to settle back to the
// baseline, failing the test with a stack dump if it does not.
func awaitGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak after %s: %d > %d\n%s", what, now, before, buf[:n])
	}
}

// TestFaultDelayKeepsCollectivesCorrect: jitter on every communication
// event must change timing only — collectives still compute the right
// values.
func TestFaultDelayKeepsCollectivesCorrect(t *testing.T) {
	w, _ := NewWorld(4)
	var events atomic.Int64
	w.SetFaultHook(hookFunc(func(rank int, kind FaultKind, peer, tag int) FaultDecision {
		n := events.Add(1)
		return FaultDecision{Op: FaultDelay, Delay: time.Duration(n%5) * 100 * time.Microsecond}
	}))
	err := w.Run(func(c *Comm) {
		for round := 0; round < 5; round++ {
			if got := c.AllReduceInt(c.Rank()+1, OpSum); got != 10 {
				t.Errorf("round %d rank %d: AllReduce sum = %d, want 10", round, c.Rank(), got)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run under delay injection failed: %v", err)
	}
	if events.Load() == 0 {
		t.Fatal("fault hook was never consulted")
	}
}

// TestFaultDropRedeliverPreservesFIFO: every send from rank 0 is
// dropped and redelivered asynchronously with varying delays, yet the
// runtime's per-(src,tag) non-overtaking guarantee must hold — the
// receiver sees the messages in send order.
func TestFaultDropRedeliverPreservesFIFO(t *testing.T) {
	const n = 50
	w, _ := NewWorld(2)
	var seq atomic.Int64
	w.SetFaultHook(hookFunc(func(rank int, kind FaultKind, peer, tag int) FaultDecision {
		if kind != FaultSend {
			return FaultDecision{}
		}
		// Alternate long/short delays so naive async delivery would
		// reorder adjacent messages.
		d := 100 * time.Microsecond
		if seq.Add(1)%2 == 0 {
			d = 2 * time.Millisecond
		}
		return FaultDecision{Op: FaultDropRedeliver, Delay: d}
	}))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.SendFloat64s(1, 7, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				x, _ := c.RecvFloat64s(0, 7)
				if int(x[0]) != i {
					t.Errorf("message %d arrived out of order (payload %v)", i, x[0])
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("Run under drop-redeliver injection failed: %v", err)
	}
}

// TestFaultRedeliveryGoroutinesDrain: Run must not return while
// redelivery goroutines of its own region are alive, and none may
// outlive it.
func TestFaultRedeliveryGoroutinesDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	w, _ := NewWorld(2)
	w.SetFaultHook(hookFunc(func(rank int, kind FaultKind, peer, tag int) FaultDecision {
		if kind != FaultSend {
			return FaultDecision{}
		}
		return FaultDecision{Op: FaultDropRedeliver, Delay: time.Millisecond}
	}))
	err := w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < 10; i++ {
			c.SendFloat64s(peer, 3, []float64{1})
			c.RecvFloat64s(peer, 3)
		}
	})
	if err != nil {
		t.Fatalf("Run failed: %v", err)
	}
	awaitGoroutines(t, before, "redelivery run")
}

// TestFaultCrashPoisonsWorld: an injected crash must cancel the world
// with a cause wrapping ErrInjectedFault, release all peers, and leave
// the world unusable — never an unpoisoned partial result.
func TestFaultCrashPoisonsWorld(t *testing.T) {
	w, _ := NewWorld(4)
	cause := errors.Join(ErrInjectedFault, errors.New("rank 2 killed by test"))
	w.SetFaultHook(hookFunc(func(rank int, kind FaultKind, peer, tag int) FaultDecision {
		if rank == 2 && kind == FaultBarrier {
			return FaultDecision{Op: FaultCrash, Cause: cause}
		}
		return FaultDecision{}
	}))
	err := w.Run(func(c *Comm) {
		c.AllReduceInt(1, OpSum) // first collective: rank 2 dies at its barrier
		c.AllReduceInt(2, OpSum) // peers must be released, not deadlock
	})
	if err == nil {
		t.Fatal("Run returned nil despite injected crash")
	}
	if !errors.Is(w.Cause(), ErrInjectedFault) {
		t.Errorf("world Cause = %v, want chain containing ErrInjectedFault", w.Cause())
	}
	if runErr := w.Run(func(c *Comm) {}); runErr == nil {
		t.Error("poisoned world accepted a new Run region")
	}
}

// TestFaultCrashDefaultCause: a crash decision without an explicit
// cause must poison the world with ErrInjectedFault itself.
func TestFaultCrashDefaultCause(t *testing.T) {
	w, _ := NewWorld(2)
	w.SetFaultHook(hookFunc(func(rank int, kind FaultKind, peer, tag int) FaultDecision {
		if rank == 0 {
			return FaultDecision{Op: FaultCrash}
		}
		return FaultDecision{}
	}))
	w.Run(func(c *Comm) { c.Barrier() })
	if !errors.Is(w.Cause(), ErrInjectedFault) {
		t.Errorf("world Cause = %v, want ErrInjectedFault", w.Cause())
	}
}

// TestRunContextWatcherTeardownAfterInjectedCrash extends the PR-3 leak
// checks: when an injected crash poisons the world mid-collective under
// RunContext, the context watcher goroutine (and any redelivery
// goroutines) must tear down with the region.
func TestRunContextWatcherTeardownAfterInjectedCrash(t *testing.T) {
	before := runtime.NumGoroutine()
	w, _ := NewWorld(4)
	var barriers atomic.Int64
	w.SetFaultHook(hookFunc(func(rank int, kind FaultKind, peer, tag int) FaultDecision {
		switch kind {
		case FaultSend:
			// Keep redeliveries in flight while the crash lands.
			return FaultDecision{Op: FaultDropRedeliver, Delay: 2 * time.Millisecond}
		case FaultBarrier:
			if rank == 1 && barriers.Add(1) > 2 {
				return FaultDecision{Op: FaultCrash}
			}
		}
		return FaultDecision{}
	}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- w.RunContext(ctx, func(c *Comm) {
			for i := 0; ; i++ {
				c.AllReduceFloat64(float64(i), OpSum)
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunContext returned nil despite injected crash")
		}
		if !errors.Is(w.Cause(), ErrInjectedFault) {
			t.Errorf("world Cause = %v, want ErrInjectedFault", w.Cause())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return after injected crash")
	}
	awaitGoroutines(t, before, "injected crash under RunContext")
}

// TestSetFaultHookNilRemoves: clearing the hook restores the plain
// fast path.
func TestSetFaultHookNilRemoves(t *testing.T) {
	w, _ := NewWorld(2)
	w.SetFaultHook(hookFunc(func(rank int, kind FaultKind, peer, tag int) FaultDecision {
		t.Error("hook called after removal")
		return FaultDecision{}
	}))
	w.SetFaultHook(nil)
	if err := w.Run(func(c *Comm) { c.Barrier() }); err != nil {
		t.Fatal(err)
	}
}

// TestFaultRecvDropDegradesToDelay: DropRedeliver at a non-send event
// has no message to hold back; it must degrade to a delay, never lose
// data.
func TestFaultRecvDropDegradesToDelay(t *testing.T) {
	w, _ := NewWorld(2)
	w.SetFaultHook(hookFunc(func(rank int, kind FaultKind, peer, tag int) FaultDecision {
		if kind == FaultRecv {
			return FaultDecision{Op: FaultDropRedeliver, Delay: 100 * time.Microsecond}
		}
		return FaultDecision{}
	}))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendFloat64s(1, 1, []float64{42})
		} else {
			x, _ := c.RecvFloat64s(0, 1)
			if x[0] != 42 {
				t.Errorf("payload = %v, want 42", x[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
