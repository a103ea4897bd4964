package comm

import (
	"testing"
	"testing/quick"
)

func TestSplitByParity(t *testing.T) {
	run(t, 6, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub.Size() != 3 {
			t.Errorf("rank %d: sub size %d, want 3", c.Rank(), sub.Size())
		}
		// Sub-rank follows parent order for equal keys.
		wantRank := c.Rank() / 2
		if sub.Rank() != wantRank {
			t.Errorf("rank %d: sub rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// Collectives work within the group: sum of parent ranks with my
		// parity.
		got := sub.AllReduceInt(c.Rank(), OpSum)
		want := map[int]int{0: 0 + 2 + 4, 1: 1 + 3 + 5}[c.Rank()%2]
		if got != want {
			t.Errorf("rank %d: group sum %d, want %d", c.Rank(), got, want)
		}
		// Point-to-point within the group.
		next := (sub.Rank() + 1) % sub.Size()
		prev := (sub.Rank() - 1 + sub.Size()) % sub.Size()
		sub.SendInts(next, 9, []int{c.Rank()})
		msg, _ := sub.RecvInts(prev, 9)
		if msg[0]%2 != c.Rank()%2 {
			t.Errorf("rank %d: received from other parity group", c.Rank())
		}
	})
}

func TestSplitKeyOrdering(t *testing.T) {
	run(t, 4, func(c *Comm) {
		// Reverse ordering via keys: sub-rank = size-1-parentRank.
		sub := c.Split(0, -c.Rank())
		if sub.Rank() != c.Size()-1-c.Rank() {
			t.Errorf("rank %d: sub rank %d", c.Rank(), sub.Rank())
		}
	})
}

func TestSplitSingletons(t *testing.T) {
	run(t, 3, func(c *Comm) {
		sub := c.Split(c.Rank(), 0) // every rank its own color
		if sub.Size() != 1 || sub.Rank() != 0 {
			t.Errorf("rank %d: singleton wrong: size %d rank %d", c.Rank(), sub.Size(), sub.Rank())
		}
		if got := sub.AllReduceInt(41, OpSum); got != 41 {
			t.Errorf("singleton allreduce = %d", got)
		}
	})
}

// Property: Split partitions — each rank lands in exactly one group whose
// size equals the number of ranks sharing its color.
func TestQuickSplitPartition(t *testing.T) {
	f := func(colorSeed uint8, psize uint8) bool {
		p := int(psize)%6 + 2
		colors := make([]int, p)
		s := int(colorSeed)
		for i := range colors {
			colors[i] = (i*s + s) % 3
		}
		counts := map[int]int{}
		for _, col := range colors {
			counts[col]++
		}
		w, err := NewWorld(p)
		if err != nil {
			return false
		}
		ok := true
		err = w.Run(func(c *Comm) {
			sub := c.Split(colors[c.Rank()], 0)
			if sub.Size() != counts[colors[c.Rank()]] {
				ok = false
			}
			if sub.Rank() < 0 || sub.Rank() >= sub.Size() {
				ok = false
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
