package pmat

import "fmt"

// Halo is a ghost-exchange plan over a layout: this rank receives the
// values of a sorted list of global indices it does not own, and sends
// each peer the values of its own entries that peer listed. One round is
// Post (stage and send) then Wait (receive), so the caller can compute on
// owned data while the values travel. Both steps allocate nothing: every
// send is staged in a plan-owned buffer and shipped through the world's
// payload pool, every receive lands straight in its segment.
type Halo struct {
	l   *Layout
	tag int

	// ghosts are the global indices received, ascending. Ownership is by
	// contiguous ranges, so the ones rank r owns are the one segment
	// ghosts[recvOff[r] : recvOff[r]+recvCnt[r]].
	ghosts  []int
	recvOff []int
	recvCnt []int

	// sendIdx[r] lists the local indices whose values rank r needs;
	// sendBuf[r] stages them.
	sendIdx [][]int
	sendBuf [][]float64
}

// NewHalo builds the plan for receiving the values of ghosts — global
// indices of l, sorted ascending, distinct, none owned by this rank —
// with messages tagged tag (collective). The halo keeps ghosts.
func NewHalo(l *Layout, ghosts []int, tag int) *Halo {
	p := l.c.Size()
	h := &Halo{
		l: l, tag: tag, ghosts: ghosts,
		recvOff: make([]int, p), recvCnt: make([]int, p),
		sendIdx: make([][]int, p), sendBuf: make([][]float64, p),
	}

	// Group the ghosts by owner and publish the per-owner request lists.
	reqFlat := make([]int, 0, 2*p+len(ghosts))
	i := 0
	for r := 0; r < p; r++ {
		start := i
		for i < len(ghosts) && ghosts[i] < l.Starts[r+1] {
			i++
		}
		h.recvOff[r] = start
		h.recvCnt[r] = i - start
		reqFlat = append(reqFlat, i-start)
		reqFlat = append(reqFlat, ghosts[start:i]...)
	}
	all := l.c.AllGatherInts(reqFlat)

	// Keep the lists addressed to this rank as the send plan.
	me := l.c.Rank()
	for src := 0; src < p; src++ {
		if src == me {
			continue
		}
		flat := all[src]
		pos := 0
		for r := 0; r < p; r++ {
			cnt := flat[pos]
			pos++
			if r == me && cnt > 0 {
				idx := make([]int, cnt)
				for k := range idx {
					idx[k] = flat[pos+k] - l.Start
				}
				h.sendIdx[src] = idx
				h.sendBuf[src] = make([]float64, cnt)
			}
			pos += cnt
		}
	}
	return h
}

// Sends returns the local indices whose values rank r receives, in the
// order it receives them (nil if none).
func (h *Halo) Sends(r int) []int { return h.sendIdx[r] }

// Recvs returns the global indices whose values come from rank r, a
// segment of the ghost list (empty if none).
func (h *Halo) Recvs(r int) []int {
	return h.ghosts[h.recvOff[r] : h.recvOff[r]+h.recvCnt[r]]
}

// Post sends every peer the values of x, this rank's local vector, that
// it needs. Sends never block, so every rank posts before any waits.
func (h *Halo) Post(x []float64) {
	for r, idx := range h.sendIdx {
		if len(idx) == 0 {
			continue
		}
		buf := h.sendBuf[r]
		for k, li := range idx {
			buf[k] = x[li]
		}
		h.l.c.SendFloat64sPooled(r, h.tag, buf)
	}
}

// Wait receives the values Post's peers sent: ghosts[k] becomes the value
// of the k-th ghost index.
func (h *Halo) Wait(ghosts []float64) {
	for r, cnt := range h.recvCnt {
		if cnt == 0 {
			continue
		}
		off := h.recvOff[r]
		if n, _ := h.l.c.RecvFloat64sInto(ghosts[off:off+cnt], r, h.tag); n != cnt {
			panic(fmt.Sprintf("pmat: halo: rank %d sent %d values, want %d", r, n, cnt))
		}
	}
}
