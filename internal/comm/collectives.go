package comm

import "fmt"

// Op identifies a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpProd
	OpMax
	OpMin
)

func (op Op) foldFloat64(a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	}
	panic("comm: unknown reduction op")
}

func (op Op) foldInt(a, b int) int {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	}
	panic("comm: unknown reduction op")
}

// Every collective below follows one shared-slot pattern: each rank posts
// its contribution into its typed slot, a barrier makes all contributions
// visible, every rank reads the slots it needs, and a second barrier
// protects the slots from being overwritten by the next collective before
// all ranks have read them.

// AllGatherInts gathers each rank's []int contribution; element i of the
// result is a copy of rank i's. Contributions may have different lengths.
func (c *Comm) AllGatherInts(x []int) [][]int {
	w := c.w
	w.stats[c.rank].collectives.Add(1)
	w.slots[c.rank].is = x
	c.Barrier()
	out := make([][]int, w.size)
	for r := range out {
		out[r] = append([]int(nil), w.slots[r].is...)
	}
	c.Barrier()
	w.slots[c.rank].is = nil
	return out
}

// AllGatherInt gathers one int from every rank.
func (c *Comm) AllGatherInt(x int) []int {
	w := c.w
	w.stats[c.rank].collectives.Add(1)
	w.slots[c.rank].i = x
	c.Barrier()
	out := make([]int, w.size)
	for r := range out {
		out[r] = w.slots[r].i
	}
	c.Barrier()
	return out
}

// AllGatherVFloat64s gathers variable-length contributions and returns
// their concatenation in rank order (as MPI_Allgatherv would produce).
// The fill is single-pass: each peer's slot is copied straight into its
// segment of the result, with no intermediate per-rank copies.
func (c *Comm) AllGatherVFloat64s(x []float64) []float64 {
	return c.AllGatherVFloat64sInto(nil, x)
}

// AllGatherVFloat64sInto is AllGatherVFloat64s reusing dst as the result
// buffer: the concatenation is written into dst (grown only when its
// capacity is insufficient) and returned. Zero allocations once dst has
// reached steady-state capacity. dst must not alias x.
func (c *Comm) AllGatherVFloat64sInto(dst, x []float64) []float64 {
	w := c.w
	w.stats[c.rank].collectives.Add(1)
	w.slots[c.rank].fs = x
	c.Barrier()
	total := 0
	for r := 0; r < w.size; r++ {
		total += len(w.slots[r].fs)
	}
	if cap(dst) < total {
		dst = make([]float64, total)
	}
	dst = dst[:total]
	off := 0
	for r := 0; r < w.size; r++ {
		off += copy(dst[off:], w.slots[r].fs)
	}
	c.Barrier()
	w.slots[c.rank].fs = nil
	return dst
}

// AllGatherVInts gathers variable-length []int contributions concatenated
// in rank order, with a single-pass fill.
func (c *Comm) AllGatherVInts(x []int) []int {
	w := c.w
	w.stats[c.rank].collectives.Add(1)
	w.slots[c.rank].is = x
	c.Barrier()
	total := 0
	for r := 0; r < w.size; r++ {
		total += len(w.slots[r].is)
	}
	out := make([]int, total)
	off := 0
	for r := 0; r < w.size; r++ {
		off += copy(out[off:], w.slots[r].is)
	}
	c.Barrier()
	w.slots[c.rank].is = nil
	return out
}

// AllReduceFloat64 combines one float64 per rank with op; every rank
// receives the result. The fold is performed in rank order on every rank,
// so the result is deterministic and identical across ranks. Posts go
// through the typed slots, so no allocation occurs.
func (c *Comm) AllReduceFloat64(x float64, op Op) float64 {
	w := c.w
	w.stats[c.rank].collectives.Add(1)
	w.slots[c.rank].f = x
	c.Barrier()
	acc := w.slots[0].f
	for r := 1; r < w.size; r++ {
		acc = op.foldFloat64(acc, w.slots[r].f)
	}
	c.Barrier()
	return acc
}

// AllReduceInt combines one int per rank with op on every rank, without
// allocating.
func (c *Comm) AllReduceInt(x int, op Op) int {
	w := c.w
	w.stats[c.rank].collectives.Add(1)
	w.slots[c.rank].i = x
	c.Barrier()
	acc := w.slots[0].i
	for r := 1; r < w.size; r++ {
		acc = op.foldInt(acc, w.slots[r].i)
	}
	c.Barrier()
	return acc
}

// AllReduceFloat64sInPlace element-wise reduces equal-length vectors
// across ranks, overwriting x with the result on every rank. The fold is
// performed in rank order (element by element, the same float operation
// order as a sequence of scalar AllReduceFloat64 calls — so fusing
// independent scalar reductions into one short vector is
// bitwise-neutral). x is posted to peers until the
// closing barrier, then overwritten from rank-private scratch; nothing
// allocates in steady state.
func (c *Comm) AllReduceFloat64sInPlace(x []float64, op Op) {
	w := c.w
	w.stats[c.rank].collectives.Add(1)
	w.slots[c.rank].fs = x
	c.Barrier()
	tmp := w.redScratch(c.rank, len(x))
	if len(w.slots[0].fs) != len(x) {
		panic(fmt.Sprintf("comm: AllReduceFloat64sInPlace length mismatch: rank %d has %d, rank 0 has %d", c.rank, len(x), len(w.slots[0].fs)))
	}
	copy(tmp, w.slots[0].fs)
	for r := 1; r < w.size; r++ {
		v := w.slots[r].fs
		if len(v) != len(x) {
			panic(fmt.Sprintf("comm: AllReduceFloat64sInPlace length mismatch: rank %d has %d, rank %d has %d", c.rank, len(x), r, len(v)))
		}
		for i := range tmp {
			tmp[i] = op.foldFloat64(tmp[i], v[i])
		}
	}
	// Peers read x only between the two barriers; writing it back after
	// the closing barrier is race-free.
	c.Barrier()
	copy(x, tmp)
	w.slots[c.rank].fs = nil
}

// BcastFloat64s broadcasts root's slice; every rank (including root)
// receives a private copy. Non-root ranks may pass nil.
func (c *Comm) BcastFloat64s(root int, x []float64) []float64 {
	c.checkPeer(root)
	w := c.w
	w.stats[c.rank].collectives.Add(1)
	if c.rank == root {
		w.slots[c.rank].fs = x
	}
	c.Barrier()
	out := append([]float64(nil), w.slots[root].fs...)
	c.Barrier()
	if c.rank == root {
		w.slots[c.rank].fs = nil
	}
	return out
}

// BcastFloat64sInto broadcasts root's buf into every rank's buf (an
// MPI_Bcast: the same argument is the source on root and the destination
// elsewhere). All ranks must pass equal-length buffers. No allocation.
func (c *Comm) BcastFloat64sInto(root int, buf []float64) {
	c.checkPeer(root)
	w := c.w
	w.stats[c.rank].collectives.Add(1)
	if c.rank == root {
		w.slots[c.rank].fs = buf
	}
	c.Barrier()
	if c.rank != root {
		src := w.slots[root].fs
		if len(src) != len(buf) {
			panic(fmt.Sprintf("comm: BcastFloat64sInto length mismatch: root has %d, rank %d has %d", len(src), c.rank, len(buf)))
		}
		copy(buf, src)
	}
	c.Barrier()
	if c.rank == root {
		w.slots[c.rank].fs = nil
	}
}

// BcastInt broadcasts one int from root.
func (c *Comm) BcastInt(root int, x int) int {
	c.checkPeer(root)
	w := c.w
	w.stats[c.rank].collectives.Add(1)
	if c.rank == root {
		w.slots[c.rank].i = x
	}
	c.Barrier()
	out := w.slots[root].i
	c.Barrier()
	return out
}

// GatherVFloat64s gathers variable-length slices at root, concatenated in
// rank order. Non-root ranks receive nil.
func (c *Comm) GatherVFloat64s(root int, x []float64) []float64 {
	return c.GatherVFloat64sInto(root, nil, x)
}

// GatherVFloat64sInto is GatherVFloat64s writing root's concatenated
// result into dst (grown only when too small) and returning it; non-root
// ranks receive nil and may pass nil dst. Single-pass, allocation-free at
// steady-state capacity.
func (c *Comm) GatherVFloat64sInto(root int, dst, x []float64) []float64 {
	c.checkPeer(root)
	w := c.w
	w.stats[c.rank].collectives.Add(1)
	w.slots[c.rank].fs = x
	c.Barrier()
	if c.rank == root {
		total := 0
		for r := 0; r < w.size; r++ {
			total += len(w.slots[r].fs)
		}
		if cap(dst) < total {
			dst = make([]float64, total)
		}
		dst = dst[:total]
		off := 0
		for r := 0; r < w.size; r++ {
			off += copy(dst[off:], w.slots[r].fs)
		}
	}
	c.Barrier()
	w.slots[c.rank].fs = nil
	if c.rank != root {
		return nil
	}
	return dst
}

// ScatterVFloat64sInto distributes parts[i] from root to rank i, writing
// this rank's part into dst (grown only when too small) and returning it.
// Non-root ranks pass nil parts. Allocation-free at steady-state
// capacity. Root's parts are read by peers only inside the call; the
// caller keeps ownership afterwards.
func (c *Comm) ScatterVFloat64sInto(root int, parts [][]float64, dst []float64) []float64 {
	c.checkPeer(root)
	w := c.w
	w.stats[c.rank].collectives.Add(1)
	if c.rank == root {
		if len(parts) != w.size {
			panic(fmt.Sprintf("comm: ScatterVFloat64s needs %d parts, got %d", w.size, len(parts)))
		}
		w.slots[c.rank].fss = parts
	}
	c.Barrier()
	src := w.slots[root].fss[c.rank]
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	c.Barrier()
	if c.rank == root {
		w.slots[c.rank].fss = nil
	}
	return dst
}
