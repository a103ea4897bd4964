package comm

import (
	"runtime"
	"testing"
)

func TestSendFloat64sPooledRoundTrip(t *testing.T) {
	run(t, 4, func(c *Comm) {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		dst := make([]float64, 3)
		for iter := 0; iter < 5; iter++ {
			x := []float64{float64(c.Rank()), float64(iter), 2.5}
			c.SendFloat64sPooled(next, 11, x)
			// The sender keeps ownership of x: mutating it after the send
			// must not affect the in-flight payload.
			x[0], x[1], x[2] = -1, -1, -1
			n, from := c.RecvFloat64sInto(dst, prev, 11)
			if n != 3 || from != prev {
				t.Errorf("rank %d: RecvFloat64sInto = (%d, %d), want (3, %d)", c.Rank(), n, from, prev)
			}
			if dst[0] != float64(prev) || dst[1] != float64(iter) || dst[2] != 2.5 {
				t.Errorf("rank %d iter %d: received %v", c.Rank(), iter, dst)
			}
		}
		st := c.w.stats[c.rank].snapshot()
		if st.PoolRecycled == 0 {
			t.Errorf("rank %d: PoolRecycled = 0, want > 0 after pooled round trips", c.Rank())
		}
		if st.PoolAllocs == 0 {
			t.Errorf("rank %d: PoolAllocs = 0, want > 0 (first sends must miss the pool)", c.Rank())
		}
		if st.PoolAllocs > st.PoolRecycled {
			// Some early sends miss while buffers are in flight, but the
			// steady state must recycle: far more recycles than misses.
			t.Errorf("rank %d: PoolAllocs=%d > PoolRecycled=%d; pool not recycling", c.Rank(), st.PoolAllocs, st.PoolRecycled)
		}
	})
}

func TestPooledSendPlainRecvTransfersOwnership(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendFloat64sPooled(1, 3, []float64{1, 2, 3})
			c.SendFloat64sPooled(1, 3, []float64{4, 5, 6})
		} else {
			a, _ := c.RecvFloat64s(0, 3)
			b, _ := c.RecvFloat64s(0, 3)
			// The receiver owns both buffers outright; they must be
			// distinct storage even though both came through the pool.
			a[0] = 99
			if b[0] != 4 || b[1] != 5 || b[2] != 6 {
				t.Errorf("second payload corrupted by writing the first: %v", b)
			}
		}
	})
}

func TestRecvFloat64sIntoLongerDst(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendFloat64s(1, 5, []float64{7, 8})
		} else {
			dst := []float64{-1, -1, -1, -1}
			n, _ := c.RecvFloat64sInto(dst, 0, 5)
			if n != 2 || dst[0] != 7 || dst[1] != 8 || dst[2] != -1 {
				t.Errorf("RecvFloat64sInto = %d, dst = %v", n, dst)
			}
		}
	})
}

func TestAllReduceFloat64sInPlaceMatchesCopying(t *testing.T) {
	for _, p := range []int{1, 2, 5} {
		run(t, p, func(c *Comm) {
			x := []float64{float64(c.Rank() + 1), 0.5 * float64(c.Rank()), -3}
			// The reference is the rank-order fold written out: rank 0's
			// contribution, then each higher rank's added to it in turn.
			all := c.AllGatherVFloat64s(x)
			ref := append([]float64(nil), all[:len(x)]...)
			for r := 1; r < p; r++ {
				for i := range ref {
					ref[i] += all[r*len(x)+i]
				}
			}
			c.AllReduceFloat64sInPlace(x, OpSum)
			for i := range x {
				if x[i] != ref[i] {
					t.Errorf("p=%d rank %d: in-place[%d] = %v, want %v", p, c.Rank(), i, x[i], ref[i])
				}
			}
			// Element-wise fold must be bitwise identical to the scalar
			// AllReduce of the same contributions (the fused-reduction
			// numerics contract).
			y := []float64{1.0 / float64(c.Rank()+3)}
			scalar := c.AllReduceFloat64(y[0], OpSum)
			c.AllReduceFloat64sInPlace(y, OpSum)
			if y[0] != scalar {
				t.Errorf("p=%d rank %d: fused %v != scalar %v", p, c.Rank(), y[0], scalar)
			}
		})
	}
}

func TestAllReduceFloat64sInPlaceOps(t *testing.T) {
	run(t, 3, func(c *Comm) {
		x := []float64{float64(c.Rank()), float64(-c.Rank())}
		c.AllReduceFloat64sInPlace(x, OpMax)
		if x[0] != 2 || x[1] != 0 {
			t.Errorf("rank %d: OpMax got %v, want [2 0]", c.Rank(), x)
		}
	})
}

func TestBcastFloat64sInto(t *testing.T) {
	run(t, 4, func(c *Comm) {
		buf := make([]float64, 3)
		if c.Rank() == 2 {
			buf[0], buf[1], buf[2] = 9, 8, 7
		}
		c.BcastFloat64sInto(2, buf)
		if buf[0] != 9 || buf[1] != 8 || buf[2] != 7 {
			t.Errorf("rank %d: BcastFloat64sInto got %v", c.Rank(), buf)
		}
	})
}

// TestAllGatherVLengthPreservation pins the single-pass AllGatherV
// contract: the result length is exactly the sum of the per-rank
// contribution lengths and every segment lands at its rank-order offset.
func TestAllGatherVLengthPreservation(t *testing.T) {
	for _, p := range []int{1, 3, 4} {
		run(t, p, func(c *Comm) {
			n := c.Rank() + 1 // rank r contributes r+1 elements
			x := make([]float64, n)
			xi := make([]int, n)
			for i := range x {
				x[i] = float64(100*c.Rank() + i)
				xi[i] = 100*c.Rank() + i
			}
			got := c.AllGatherVFloat64s(x)
			goti := c.AllGatherVInts(xi)
			want := p * (p + 1) / 2
			if len(got) != want || len(goti) != want {
				t.Fatalf("p=%d rank %d: lengths %d/%d, want %d", p, c.Rank(), len(got), len(goti), want)
			}
			k := 0
			for r := 0; r < p; r++ {
				for i := 0; i <= r; i++ {
					if got[k] != float64(100*r+i) || goti[k] != 100*r+i {
						t.Fatalf("p=%d rank %d: element %d = %v/%d, want %d", p, c.Rank(), k, got[k], goti[k], 100*r+i)
					}
					k++
				}
			}
		})
	}
}

func TestAllGatherVFloat64sIntoReusesBuffer(t *testing.T) {
	run(t, 3, func(c *Comm) {
		x := []float64{float64(c.Rank())}
		dst := make([]float64, 0, 16)
		out := c.AllGatherVFloat64sInto(dst, x)
		if len(out) != 3 || &out[:1][0] != &dst[:1][0] {
			t.Errorf("rank %d: result not written into the provided buffer", c.Rank())
		}
		for r := 0; r < 3; r++ {
			if out[r] != float64(r) {
				t.Errorf("rank %d: out[%d] = %v", c.Rank(), r, out[r])
			}
		}
	})
}

func TestGatherVFloat64sInto(t *testing.T) {
	run(t, 3, func(c *Comm) {
		x := []float64{float64(c.Rank()), float64(c.Rank())}
		dst := make([]float64, 0, 8)
		out := c.GatherVFloat64sInto(1, dst, x)
		if c.Rank() != 1 {
			if out != nil {
				t.Errorf("rank %d: non-root got %v, want nil", c.Rank(), out)
			}
			return
		}
		want := []float64{0, 0, 1, 1, 2, 2}
		if len(out) != len(want) {
			t.Fatalf("root got length %d, want %d", len(out), len(want))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Errorf("root out[%d] = %v, want %v", i, out[i], want[i])
			}
		}
	})
}

func TestScatterVFloat64sInto(t *testing.T) {
	run(t, 3, func(c *Comm) {
		var parts [][]float64
		if c.Rank() == 0 {
			parts = [][]float64{{10}, {20, 21}, {30, 31, 32}}
		}
		dst := make([]float64, 0, 4)
		out := c.ScatterVFloat64sInto(0, parts, dst)
		if len(out) != c.Rank()+1 {
			t.Fatalf("rank %d: got length %d, want %d", c.Rank(), len(out), c.Rank()+1)
		}
		for i := range out {
			if out[i] != float64(10*(c.Rank()+1)+i) {
				t.Errorf("rank %d: out[%d] = %v", c.Rank(), i, out[i])
			}
		}
	})
}

// TestSteadyStateCollectivesDoNotAllocate pins the tentpole claim at the
// comm layer: once warm, barriers, typed-slot reductions, in-place
// broadcasts/gathers and pooled point-to-point exchanges run without a
// single heap allocation on a 1-rank world (where process-global
// allocation counting is deterministic).
func TestSteadyStateCollectivesDoNotAllocate(t *testing.T) {
	w := mustWorld(t, 1)
	if err := w.Run(func(c *Comm) {
		buf := []float64{1, 2, 3}
		red := []float64{4, 5}
		dst := make([]float64, 8)
		gat := make([]float64, 0, 8)
		step := func() {
			c.Barrier()
			c.AllReduceFloat64(1.5, OpSum)
			c.AllReduceInt(2, OpMax)
			c.AllReduceFloat64sInPlace(red, OpSum)
			c.BcastFloat64sInto(0, buf)
			gat = c.AllGatherVFloat64sInto(gat, buf)
			c.SendFloat64sPooled(0, 9, buf)
			c.RecvFloat64sInto(dst, 0, 9)
		}
		step() // warm pools and scratch
		runtime.GC()
		// Under -race, sync.Pool drops 25% of Puts by design, so the
		// pooled send/recv pair cannot sustain strict zero; the ops still
		// run for race coverage.
		if avg := testing.AllocsPerRun(50, step); !raceEnabled && avg != 0 {
			t.Errorf("steady-state comm ops allocate %.2f allocs/op, want 0", avg)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
