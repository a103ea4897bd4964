package comm

import (
	"testing"
	"time"
)

// TestStatsP2P checks message and byte accounting on the p2p path.
func TestStatsP2P(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendFloat64s(1, 5, []float64{1, 2, 3}) // 24 bytes
			c.SendInts(1, 6, []int{1, 2})            // 16 bytes
		} else {
			c.RecvFloat64s(0, 5)
			c.RecvInts(0, 6)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := w.stats[0].snapshot(), w.stats[1].snapshot()
	if r0.Sends != 2 || r0.BytesSent != 40 {
		t.Fatalf("rank 0 sends=%d bytes=%d, want 2/40", r0.Sends, r0.BytesSent)
	}
	if r1.Recvs != 2 || r1.BytesRecv != 40 {
		t.Fatalf("rank 1 recvs=%d bytes=%d, want 2/40", r1.Recvs, r1.BytesRecv)
	}
	if r0.Recvs != 0 || r1.Sends != 0 {
		t.Fatalf("unexpected reverse traffic: %+v %+v", r0, r1)
	}
	total := w.Stats()
	if total.Sends != 2 || total.Recvs != 2 || total.BytesSent != 40 || total.BytesRecv != 40 {
		t.Fatalf("world totals wrong: %+v", total)
	}
}

// TestStatsCollectivesAndBarriers checks collective and barrier
// accounting: one AllReduce is one collective and two barrier entries
// per rank. Parks are pinned where they are exact: a 1-rank world never
// waits (no park, and no clock read either), and a zero poll budget parks
// every arrival but the one that releases its generation.
func TestStatsCollectivesAndBarriers(t *testing.T) {
	const P = 4
	region := func(c *Comm) {
		c.Barrier()
		c.AllReduceFloat64(float64(c.Rank()), OpSum)
		c.AllGatherInt(c.Rank())
	}
	w, _ := NewWorld(P)
	if err := w.Run(region); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < P; r++ {
		s := w.stats[r].snapshot()
		if s.Collectives != 2 {
			t.Fatalf("rank %d collectives=%d, want 2", r, s.Collectives)
		}
		if s.BarrierEntries != 5 { // 1 explicit + 2 per collective
			t.Fatalf("rank %d barriers=%d, want 5", r, s.BarrierEntries)
		}
	}
	total := w.Stats()
	if total.Collectives != 2*P || total.BarrierEntries != 5*P {
		t.Fatalf("world totals wrong: %+v", total)
	}
	if total.BarrierWait < 0 {
		t.Fatalf("negative barrier wait %v", total.BarrierWait)
	}
	if total.BarrierParks > 5*(P-1) || total.RecvParks != 0 {
		t.Fatalf("parks out of range (at most %d waiters can block): %+v", 5*(P-1), total)
	}

	solo, _ := NewWorld(1)
	if err := solo.Run(region); err != nil {
		t.Fatal(err)
	}
	if s := solo.Stats(); s.BarrierEntries != 5 || s.BarrierParks != 0 || s.BarrierWait != 0 {
		t.Fatalf("1-rank world: %+v, want 5 entries, no parks, zero wait", s)
	}

	defer SetPollBudget(0)()
	before := w.Stats()
	if err := w.Run(region); err != nil {
		t.Fatal(err)
	}
	if s := w.Stats().Sub(before); s.BarrierEntries != 5*P || s.BarrierParks != 5*(P-1) {
		t.Fatalf("poll budget 0: %d parks in %d entries, want %d", s.BarrierParks, s.BarrierEntries, 5*(P-1))
	}
}

// TestStatsResetAndWindows checks Sub-based windowing: what a solve is
// charged is the difference of two snapshots, no counter is ever reset.
func TestStatsResetAndWindows(t *testing.T) {
	w, _ := NewWorld(2)
	run := func() {
		if err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.SendFloat64s(1, 1, []float64{1})
			} else {
				c.RecvFloat64s(0, 1)
			}
			c.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := w.Stats()
	run()
	window := w.Stats().Sub(before)
	if window.Sends != 1 || window.Recvs != 1 || window.BarrierEntries != 2 {
		t.Fatalf("window stats wrong: %+v", window)
	}
}

// TestStatsAddSub checks the snapshot arithmetic helpers.
func TestStatsAddSub(t *testing.T) {
	a := Stats{Sends: 3, Recvs: 2, BytesSent: 100, BytesRecv: 80, BarrierEntries: 5, BarrierWait: 2 * time.Second, BarrierParks: 3, RecvParks: 2, Collectives: 4}
	b := Stats{Sends: 1, Recvs: 1, BytesSent: 60, BytesRecv: 50, BarrierEntries: 2, BarrierWait: time.Second, BarrierParks: 1, RecvParks: 1, Collectives: 3}
	if got := a.Sub(b).Add(b); got != a {
		t.Fatalf("Add(Sub) not identity: %+v != %+v", got, a)
	}
}

// TestCommStatsPerRank checks that the counters are kept per rank: from
// inside a region each rank has counted its own collective and no more.
func TestCommStatsPerRank(t *testing.T) {
	w, _ := NewWorld(3)
	err := w.Run(func(c *Comm) {
		c.AllGatherInt(c.Rank())
		if s := c.w.stats[c.rank].snapshot(); s.Collectives != 1 {
			panic("rank-local collectives count wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
