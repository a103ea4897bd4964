package comm

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func mustWorld(t *testing.T, p int) *World {
	t.Helper()
	w, err := NewWorld(p)
	if err != nil {
		t.Fatalf("NewWorld(%d): %v", p, err)
	}
	return w
}

func run(t *testing.T, p int, fn func(c *Comm)) {
	t.Helper()
	if err := mustWorld(t, p).Run(fn); err != nil {
		t.Fatalf("Run on %d ranks: %v", p, err)
	}
}

func TestNewWorldRejectsBadSize(t *testing.T) {
	for _, p := range []int{0, -1, -100} {
		if _, err := NewWorld(p); err == nil {
			t.Errorf("NewWorld(%d) succeeded, want error", p)
		}
	}
}

func TestRankAndSize(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		var seen int64
		run(t, p, func(c *Comm) {
			if c.Size() != p {
				t.Errorf("Size() = %d, want %d", c.Size(), p)
			}
			if c.Rank() < 0 || c.Rank() >= p {
				t.Errorf("Rank() = %d out of range", c.Rank())
			}
			atomic.AddInt64(&seen, 1)
		})
		if seen != int64(p) {
			t.Errorf("fn ran %d times, want %d", seen, p)
		}
	}
}

func TestSendRecvFloat64s(t *testing.T) {
	run(t, 4, func(c *Comm) {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		c.SendFloat64s(next, 7, []float64{float64(c.Rank()), 2.5})
		got, from := c.RecvFloat64s(prev, 7)
		if from != prev {
			t.Errorf("rank %d: got message from %d, want %d", c.Rank(), from, prev)
		}
		if got[0] != float64(prev) || got[1] != 2.5 {
			t.Errorf("rank %d: got %v", c.Rank(), got)
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			x := []float64{1, 2, 3}
			c.SendFloat64s(1, 0, x)
			x[0] = 99 // must not be visible to the receiver
		} else {
			got, _ := c.RecvFloat64s(0, 0)
			if got[0] != 1 {
				t.Errorf("receiver saw sender's post-send mutation: %v", got)
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendInts(1, 10, []int{10})
			c.SendInts(1, 20, []int{20})
			c.SendInts(1, 30, []int{30})
		} else {
			// Receive out of order by tag.
			for _, tag := range []int{30, 10, 20} {
				got, _ := c.RecvInts(0, tag)
				if got[0] != tag {
					t.Errorf("tag %d delivered payload %v", tag, got)
				}
			}
		}
	})
}

func TestNonOvertakingSameTag(t *testing.T) {
	const n = 50
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.SendInts(1, 5, []int{i})
			}
		} else {
			for i := 0; i < n; i++ {
				got, _ := c.RecvInts(0, 5)
				if got[0] != i {
					t.Fatalf("message %d overtook: got %d", i, got[0])
				}
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	run(t, 3, func(c *Comm) {
		if c.Rank() == 0 {
			sum := 0
			for i := 0; i < 2; i++ {
				got, from := c.RecvInts(AnySource, AnyTag)
				if from != got[0] {
					t.Errorf("payload %d does not match source %d", got[0], from)
				}
				sum += got[0]
			}
			if sum != 3 {
				t.Errorf("sum = %d, want 3", sum)
			}
		} else {
			c.SendInts(0, c.Rank()*100, []int{c.Rank()})
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	const rounds = 20
	for _, p := range []int{2, 5} {
		var counter int64
		run(t, p, func(c *Comm) {
			for i := 0; i < rounds; i++ {
				atomic.AddInt64(&counter, 1)
				c.Barrier()
				// After the barrier every rank must observe all
				// increments of this round.
				if got := atomic.LoadInt64(&counter); got < int64((i+1)*p) {
					t.Errorf("round %d: counter %d < %d", i, got, (i+1)*p)
				}
				c.Barrier()
			}
		})
	}
}

func TestAllGatherInt(t *testing.T) {
	run(t, 5, func(c *Comm) {
		got := c.AllGatherInt(c.Rank() * c.Rank())
		for r, v := range got {
			if v != r*r {
				t.Errorf("got[%d] = %d, want %d", r, v, r*r)
			}
		}
	})
}

func TestAllGatherVariableLengths(t *testing.T) {
	run(t, 4, func(c *Comm) {
		mine := make([]int, c.Rank()) // rank r contributes r elements
		for i := range mine {
			mine[i] = c.Rank()
		}
		parts := c.AllGatherInts(mine)
		for r, p := range parts {
			if len(p) != r {
				t.Errorf("part %d has len %d, want %d", r, len(p), r)
			}
			for _, v := range p {
				if v != r {
					t.Errorf("part %d contains %v", r, v)
				}
			}
		}
		flat := c.AllGatherVFloat64s(make([]float64, c.Rank()))
		if len(flat) != 0+1+2+3 {
			t.Errorf("flat len = %d, want 6", len(flat))
		}
	})
}

func TestAllReduce(t *testing.T) {
	run(t, 6, func(c *Comm) {
		p := c.Size()
		if got := c.AllReduceInt(c.Rank()+1, OpSum); got != p*(p+1)/2 {
			t.Errorf("sum = %d, want %d", got, p*(p+1)/2)
		}
		if got := c.AllReduceInt(c.Rank(), OpMax); got != p-1 {
			t.Errorf("max = %d, want %d", got, p-1)
		}
		if got := c.AllReduceInt(c.Rank(), OpMin); got != 0 {
			t.Errorf("min = %d, want 0", got)
		}
		if got := c.AllReduceFloat64(2, OpProd); got != 64 {
			t.Errorf("prod = %v, want 64", got)
		}
	})
}

func TestAllReduceVector(t *testing.T) {
	run(t, 3, func(c *Comm) {
		x := []float64{float64(c.Rank()), 1, -float64(c.Rank())}
		c.AllReduceFloat64sInPlace(x, OpSum)
		want := []float64{3, 3, -3}
		for i := range want {
			if x[i] != want[i] {
				t.Errorf("got[%d] = %v, want %v", i, x[i], want[i])
			}
		}
	})
}

func TestBcast(t *testing.T) {
	run(t, 4, func(c *Comm) {
		var payload []float64
		if c.Rank() == 2 {
			payload = []float64{3.14, 2.71}
		}
		got := c.BcastFloat64s(2, payload)
		if len(got) != 2 || got[0] != 3.14 || got[1] != 2.71 {
			t.Errorf("rank %d: bcast got %v", c.Rank(), got)
		}
		// Mutating the received copy must not affect other ranks.
		got[0] = float64(c.Rank())
		c.Barrier()

		if v := c.BcastInt(3, (c.Rank()+1)*11); v != 44 {
			t.Errorf("rank %d: bcast int %d, want 44", c.Rank(), v)
		}
	})
}

func TestGatherAndScatter(t *testing.T) {
	run(t, 4, func(c *Comm) {
		mine := []float64{float64(c.Rank() * 10)}
		flat := c.GatherVFloat64s(0, mine)
		if c.Rank() == 0 {
			want := []float64{0, 10, 20, 30}
			for i := range want {
				if flat[i] != want[i] {
					t.Errorf("gatherv[%d] = %v, want %v", i, flat[i], want[i])
				}
			}
		}

		var outParts [][]float64
		if c.Rank() == 0 {
			outParts = [][]float64{{0}, {1, 1}, {2, 2, 2}, {3}}
		}
		got := c.ScatterVFloat64sInto(0, outParts, nil)
		wantLen := map[int]int{0: 1, 1: 2, 2: 3, 3: 1}[c.Rank()]
		if len(got) != wantLen {
			t.Fatalf("rank %d: scatter len %d, want %d", c.Rank(), len(got), wantLen)
		}
		for _, v := range got {
			if v != float64(c.Rank()) {
				t.Errorf("rank %d: scatter got %v", c.Rank(), got)
			}
		}
	})
}

func TestPanicInOneRankAbortsWorld(t *testing.T) {
	w := mustWorld(t, 3)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("deliberate failure")
		}
		// These ranks would deadlock forever without abort propagation.
		c.Barrier()
	})
	if err == nil {
		t.Fatal("Run returned nil error after a rank panicked")
	}
	if !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("error %q does not mention the panic", err)
	}
}

func TestAbortWakesBlockedRecv(t *testing.T) {
	w := mustWorld(t, 2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			panic("boom")
		}
		c.RecvFloat64s(0, 0) // would block forever
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestInvalidPeerPanics(t *testing.T) {
	w := mustWorld(t, 2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendInts(5, 0, []int{1}) // out of range
		}
	})
	if err == nil {
		t.Fatal("expected error for invalid peer")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	w := mustWorld(t, 2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendInts(1, 0, []int{1})
		} else {
			c.RecvFloat64s(0, 0)
		}
	})
	if err == nil {
		t.Fatal("expected error for payload type mismatch")
	}
}

func TestConsecutiveRunRegions(t *testing.T) {
	w := mustWorld(t, 3)
	for i := 0; i < 5; i++ {
		if err := w.Run(func(c *Comm) {
			if got := c.AllReduceInt(1, OpSum); got != 3 {
				t.Errorf("region %d: sum = %d", i, got)
			}
		}); err != nil {
			t.Fatalf("region %d: %v", i, err)
		}
	}
}

// Property: AllReduce(sum) equals the serial sum for any inputs and any
// world size in [1,6].
func TestQuickAllReduceSumMatchesSerial(t *testing.T) {
	f := func(vals []float64, psize uint8) bool {
		p := int(psize)%6 + 1
		if len(vals) < p {
			vals = append(vals, make([]float64, p-len(vals))...)
		}
		vals = vals[:p]
		want := 0.0
		for _, v := range vals {
			want += v
		}
		w, err := NewWorld(p)
		if err != nil {
			return false
		}
		ok := true
		err = w.Run(func(c *Comm) {
			got := c.AllReduceFloat64(vals[c.Rank()], OpSum)
			if got != want { // rank-ordered deterministic fold: exact equality
				ok = false
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a random permutation routing step delivers every payload
// exactly once (pairwise sendrecv with AnySource).
func TestQuickPermutationRouting(t *testing.T) {
	f := func(seed int64, psize uint8) bool {
		p := int(psize)%7 + 1
		perm := rand.New(rand.NewSource(seed)).Perm(p)
		w, err := NewWorld(p)
		if err != nil {
			return false
		}
		ok := true
		err = w.Run(func(c *Comm) {
			c.SendInts(perm[c.Rank()], 1, []int{c.Rank()})
			got, from := c.RecvInts(AnySource, 1)
			if got[0] != from || perm[from] != c.Rank() {
				ok = false
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
