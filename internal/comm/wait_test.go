package comm

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitParks is the number of waits rank has parked in, of either kind.
func waitParks(w *World, rank int) int64 {
	s := w.stats[rank].snapshot()
	return s.BarrierParks + s.RecvParks
}

// TestWaitOn pins the helper's own contract: a ready wake is taken
// without parking, an abort is seen at the first poll, a wake later than
// the whole budget is counted as exactly one park, and a zero budget goes
// straight to the park.
func TestWaitOn(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	never := make(chan struct{})
	for _, budget := range []int{0, 1, yieldPolls} {
		restore := SetPollBudget(budget)
		var parks atomic.Int64
		ready := make(chan int, 1)
		ready <- 7
		wantParks := int64(0)
		if budget == 0 {
			wantParks = 1 // nothing polls, so even a ready wake or an abort is taken parked
		}
		if v, res := waitOn(ready, never, &parks); v != 7 || res != awaitOK || parks.Load() != wantParks {
			t.Errorf("budget %d, ready wake: got (%d, %v, parks %d), want (7, ok, %d)", budget, v, res, parks.Load(), wantParks)
		}
		parks.Store(0)
		if _, res := waitOn(ready, closed, &parks); res != awaitAborted || parks.Load() != wantParks {
			t.Errorf("budget %d, abort: got (%v, parks %d), want (aborted, %d)", budget, res, parks.Load(), wantParks)
		}
		parks.Store(0)
		late := make(chan int)
		go func() {
			time.Sleep(5 * time.Millisecond) // far beyond any budget above
			late <- 9
		}()
		if v, res := waitOn(late, never, &parks); v != 9 || res != awaitOK || parks.Load() != 1 {
			t.Errorf("budget %d, late wake: got (%d, %v, parks %d), want (9, ok, 1)", budget, v, res, parks.Load())
		}
		restore()
	}
}

// TestReleaseWhilePollingAndParked: abort, cancel and deadline each
// release a rank whose peer never arrives, for Barrier, AllReduceFloat64
// and Recv — once while it polls and once parked. A polling rank has an
// unbounded budget, so it never parks and only the abort can release it:
// it ends with 0 parks. A parked rank has a zero budget, so it parks at
// once and ends with exactly 1. Cancel and deadline reach the world
// through RunContext's watcher, as every context does. No assertion
// reads the clock: the rank is released, Run reports the cause, and the
// park count says which phase released it.
func TestReleaseWhilePollingAndParked(t *testing.T) {
	ops := []struct {
		name string
		do   func(c *Comm)
	}{
		{"barrier", func(c *Comm) { c.Barrier() }},
		{"allreduce", func(c *Comm) { c.AllReduceFloat64(1, OpSum) }},
		{"recv", func(c *Comm) { c.RecvFloat64s(1, 7) }},
	}
	type armed struct {
		ctx  context.Context // the region's context
		fire func()          // makes the event happen
		want error           // what Run must report (nil for a bare abort)
	}
	events := []struct {
		name string
		arm  func(w *World) (armed, context.CancelFunc)
	}{
		{"abort", func(w *World) (armed, context.CancelFunc) {
			return armed{fire: w.Abort}, func() {}
		}},
		{"cancel", func(*World) (armed, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			return armed{ctx: ctx, want: context.Canceled, fire: cancel}, cancel
		}},
		{"deadline", func(*World) (armed, context.CancelFunc) {
			ctx := passedDeadline{context.Background(), make(chan struct{})}
			fire := sync.OnceFunc(func() { close(ctx.done) })
			return armed{ctx: ctx, want: context.DeadlineExceeded, fire: fire}, fire
		}},
	}
	for _, op := range ops {
		for _, ev := range events {
			for _, parked := range []bool{false, true} {
				phase, budget, wantParks := "polling", math.MaxInt, int64(0)
				if parked {
					phase, budget, wantParks = "parked", 0, 1
				}
				t.Run(op.name+"/"+ev.name+"/"+phase, func(t *testing.T) {
					defer SetPollBudget(budget)()
					w, _ := NewWorld(2)
					a, cancel := ev.arm(w)
					defer cancel()
					entering := make(chan struct{})
					done := make(chan error, 1)
					go func() {
						done <- w.RunContext(a.ctx, func(c *Comm) {
							if c.Rank() != 0 {
								return // never joins
							}
							close(entering)
							op.do(c)
						})
					}()
					<-entering
					if parked {
						for limit := time.Now().Add(10 * time.Second); waitParks(w, 0) == 0; {
							if time.Now().After(limit) {
								t.Fatal("rank never parked")
							}
							time.Sleep(50 * time.Microsecond)
						}
					}
					a.fire()
					select {
					case err := <-done:
						if a.want == nil && err != nil || a.want != nil && !errors.Is(err, a.want) {
							t.Errorf("Run error = %v, want %v", err, a.want)
						}
						if got := waitParks(w, 0); got != wantParks {
							t.Errorf("rank 0 parked %d times, want %d", got, wantParks)
						}
					case <-time.After(10 * time.Second):
						t.Fatal("rank not released")
					}
				})
			}
		}
	}
}

// passedDeadline ends as a context whose deadline has passed does, with
// DeadlineExceeded, but at the moment the test fires it rather than at
// a time on the clock, so the parked rank has always parked first.
type passedDeadline struct {
	context.Context
	done chan struct{}
}

func (d passedDeadline) Done() <-chan struct{} { return d.done }

func (d passedDeadline) Err() error {
	select {
	case <-d.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestFaultDelayBeyondBudget: a barrier delay far longer than the whole
// polling budget makes the punctual rank park, and the collectives still
// return the right values.
func TestFaultDelayBeyondBudget(t *testing.T) {
	const rounds = 10
	w, _ := NewWorld(2)
	w.SetFaultHook(hookFunc(func(rank int, kind FaultKind, _, _ int) FaultDecision {
		if rank == 1 && kind == FaultBarrier {
			return FaultDecision{Op: FaultDelay, Delay: 5 * time.Millisecond}
		}
		return FaultDecision{}
	}))
	err := w.Run(func(c *Comm) {
		for round := 0; round < rounds; round++ {
			want := float64(2*round + 1)
			if got := c.AllReduceFloat64(float64(round+c.Rank()), OpSum); got != want {
				t.Errorf("round %d rank %d: sum = %v, want %v", round, c.Rank(), got, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Its peer is 5 ms late to every one of them; "most" leaves room for
	// a host that stalls rank 0 for as long.
	if s := w.stats[0].snapshot(); s.BarrierEntries != 2*rounds || s.BarrierParks < rounds {
		t.Errorf("rank 0 parked in %d of %d barriers, want most", s.BarrierParks, s.BarrierEntries)
	}
}

// barrierLoop runs n barriers on a fresh world of the given size and
// returns its counters.
func barrierLoop(t *testing.T, ranks, n int) Stats {
	t.Helper()
	w, _ := NewWorld(ranks)
	if err := w.Run(func(c *Comm) {
		for i := 0; i < n; i++ {
			c.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	return w.Stats()
}

// TestBarrierLiveWhenShortOfPs: 10k barriers between 2 ranks, and
// between 8, on one P park in at most 1 % of their waits — the yield
// phase hands the P to the peer being waited for, which then arrives
// before the budget runs out. A poll that never yields spends its
// budget while the peer cannot run and parks in about every wait (9,994
// of 20,000 and 70,000 of 80,000 with the Gosched removed).
func TestBarrierLiveWhenShortOfPs(t *testing.T) {
	const n = 10000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, ranks := range []int{2, 8} {
		s := barrierLoop(t, ranks, n)
		t.Logf("%d ranks on 1 P: %d of %d barrier entries parked", ranks, s.BarrierParks, s.BarrierEntries)
		if s.BarrierEntries != int64(ranks*n) || s.BarrierParks > s.BarrierEntries/100 {
			t.Errorf("%d ranks on 1 P: %d of %d barrier entries parked, want at most 1 %%", ranks, s.BarrierParks, s.BarrierEntries)
		}
	}
}

// TestRecvParks pins the receive-side park counter where it is exact: a
// receive that finds its message queued does not wait, and one that
// blocks for a late send is one park.
func TestRecvParks(t *testing.T) {
	w, _ := NewWorld(2)
	if err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendFloat64s(1, 1, []float64{1})
			c.Barrier()
			for w.stats[1].snapshot().RecvParks == 0 {
				runtime.Gosched()
			}
			c.SendFloat64s(1, 2, []float64{2})
		} else {
			c.Barrier()
			c.RecvFloat64s(0, 1) // queued before the barrier: no wait
			if got := c.w.stats[c.rank].snapshot().RecvParks; got != 0 {
				t.Errorf("receive of a queued message parked %d times", got)
			}
			c.RecvFloat64s(0, 2) // sent only once this receive has parked
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := w.stats[1].snapshot().RecvParks; got != 1 {
		t.Errorf("rank 1 RecvParks = %d, want 1", got)
	}
}
