package aztec

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// Message tags reserved for the overlapping-Schwarz handshakes.
const (
	tagOvRowMeta = 0x6f01
	tagOvRowVals = 0x6f02
	tagOvResid   = 0x6f03
)

// overlapSchwarz is restricted additive Schwarz with overlap: each rank
// factors an extended diagonal block covering `overlap` extra rows on
// each side of its block-row range (borrowed from the owning ranks), and
// every apply exchanges the overlap portion of the residual, solves the
// extended subdomain with ILUT, and keeps only the locally owned part of
// the correction (the RAS variant, AztecOO's AZ_dom_decomp with
// AZ_overlap > 0).
type overlapSchwarz struct {
	f        *ILUT
	m        *Map
	lo2, hi2 int // extended global row range [lo2, hi2)

	// Residual exchange plan: sendIdx[r] lists my local indices rank r
	// needs; recvPeers lists the peers I borrow from, in ascending row
	// order, with counts (their rows are contiguous in [lo2,hi2)).
	sendIdx   [][]int
	sendBuf   [][]float64 // per-peer staging, sized with sendIdx at setup
	recvPeers []int
	recvCnt   []int

	rhsExt []float64
	solExt []float64
}

// newOverlapSchwarz builds the extended subdomain factorization
// (collective).
func newOverlapSchwarz(rm RowMatrix, overlap int, drop, fill float64) (*overlapSchwarz, error) {
	m := rm.RowMap()
	c := m.Comm()
	l := m.Layout()
	n := l.N
	lo2 := l.Start - overlap
	if lo2 < 0 {
		lo2 = 0
	}
	hi2 := l.Start + l.LocalN + overlap
	if hi2 > n {
		hi2 = n
	}
	o := &overlapSchwarz{m: m, lo2: lo2, hi2: hi2}

	// Rows I need from each peer, grouped by owner (contiguous ranges).
	needByPeer := make(map[int][]int)
	for g := lo2; g < l.Start; g++ {
		r := l.Owner(g)
		needByPeer[r] = append(needByPeer[r], g)
	}
	for g := l.Start + l.LocalN; g < hi2; g++ {
		r := l.Owner(g)
		needByPeer[r] = append(needByPeer[r], g)
	}

	// Publish request lists (flattened per peer, as in the ghost plan).
	p := c.Size()
	reqFlat := make([]int, 0, 2*p)
	for r := 0; r < p; r++ {
		rows := needByPeer[r]
		reqFlat = append(reqFlat, len(rows))
		reqFlat = append(reqFlat, rows...)
	}
	all := c.AllGatherInts(reqFlat)

	// Serve matrix rows and record the residual-exchange send plan.
	o.sendIdx = make([][]int, p)
	for src := 0; src < p; src++ {
		if src == c.Rank() {
			continue
		}
		flat := all[src]
		pos := 0
		for r := 0; r < p; r++ {
			cnt := flat[pos]
			pos++
			if r != c.Rank() || cnt == 0 {
				pos += cnt
				continue
			}
			rows := flat[pos : pos+cnt]
			pos += cnt
			meta := []int{}
			vals := []float64{}
			idx := make([]int, cnt)
			for i, g := range rows {
				cols, v, err := rm.ExtractGlobalRowCopy(g)
				if err != nil {
					return nil, fmt.Errorf("aztec: overlap row service: %w", err)
				}
				meta = append(meta, len(cols))
				meta = append(meta, cols...)
				vals = append(vals, v...)
				idx[i] = g - l.Start
			}
			c.SendInts(src, tagOvRowMeta, meta)
			c.SendFloat64s(src, tagOvRowVals, vals)
			o.sendIdx[src] = idx
		}
	}

	// Receive borrowed rows, in ascending peer order so the extended
	// block assembles deterministically.
	peers := make([]int, 0, len(needByPeer))
	for r := range needByPeer {
		peers = append(peers, r)
	}
	sort.Ints(peers)
	borrowed := make(map[int]struct {
		cols []int
		vals []float64
	})
	for _, r := range peers {
		meta, _ := c.RecvInts(r, tagOvRowMeta)
		vals, _ := c.RecvFloat64s(r, tagOvRowVals)
		pos, vpos := 0, 0
		for _, g := range needByPeer[r] {
			nnz := meta[pos]
			pos++
			cols := meta[pos : pos+nnz]
			pos += nnz
			v := vals[vpos : vpos+nnz]
			vpos += nnz
			borrowed[g] = struct {
				cols []int
				vals []float64
			}{cols, v}
		}
		o.recvPeers = append(o.recvPeers, r)
		o.recvCnt = append(o.recvCnt, len(needByPeer[r]))
	}

	// Assemble the extended block with columns truncated to [lo2, hi2)
	// (Dirichlet cut at the subdomain boundary), row by row straight into
	// CSR. The rows come from a RowMatrix, so they are normalised once at
	// the end; a CrsMatrix's are canonical already and pass through.
	nExt := hi2 - lo2
	rp := make([]int, nExt+1)
	var ci []int
	var ev []float64
	addRow := func(g int, cols []int, vals []float64) {
		for k, j := range cols {
			if j >= lo2 && j < hi2 {
				ci = append(ci, j-lo2)
				ev = append(ev, vals[k])
			}
		}
		rp[g-lo2+1] = len(ci)
	}
	for g := lo2; g < hi2; g++ {
		if l.Owns(g) {
			cols, vals, err := rm.ExtractGlobalRowCopy(g)
			if err != nil {
				return nil, err
			}
			addRow(g, cols, vals)
			continue
		}
		row, ok := borrowed[g]
		if !ok {
			return nil, fmt.Errorf("aztec: overlap: row %d not delivered", g)
		}
		addRow(g, row.cols, row.vals)
	}
	f, err := NewILUT(sparse.Canonical(nExt, nExt, rp, ci, ev), drop, fill)
	if err != nil {
		return nil, fmt.Errorf("aztec: overlap subdomain factorization: %w", err)
	}
	o.f = f
	o.rhsExt = make([]float64, hi2-lo2)
	o.solExt = make([]float64, hi2-lo2)
	o.sendBuf = make([][]float64, len(o.sendIdx))
	for r, idx := range o.sendIdx {
		if len(idx) > 0 {
			o.sendBuf[r] = make([]float64, len(idx))
		}
	}
	return o, nil
}

// apply implements preconditioner (collective: all ranks exchange the
// overlap residual values every call).
func (o *overlapSchwarz) apply(z, r []float64) {
	c := o.m.Comm()
	l := o.m.Layout()
	// Serve peers first (sends never block). The payload rides a pooled
	// buffer so steady-state applies allocate nothing.
	for peer, idx := range o.sendIdx {
		if len(idx) == 0 {
			continue
		}
		buf := o.sendBuf[peer]
		for k, li := range idx {
			buf[k] = r[li]
		}
		c.SendFloat64sPooled(peer, tagOvResid, buf)
	}
	// Assemble the extended residual: [left overlap | local | right],
	// receiving straight into the destination segments.
	copy(o.rhsExt[l.Start-o.lo2:], r)
	cursorLeft := 0
	cursorRight := l.Start + l.LocalN - o.lo2
	for i, peer := range o.recvPeers {
		cnt := o.recvCnt[i]
		var dst []float64
		if peer < c.Rank() {
			dst = o.rhsExt[cursorLeft : cursorLeft+cnt]
			cursorLeft += cnt
		} else {
			dst = o.rhsExt[cursorRight : cursorRight+cnt]
			cursorRight += cnt
		}
		if got, _ := c.RecvFloat64sInto(dst, peer, tagOvResid); got != cnt {
			panic(fmt.Sprintf("aztec: overlap residual exchange: got %d values from %d, want %d", got, peer, cnt))
		}
	}
	o.f.Solve(o.solExt, o.rhsExt)
	copy(z, o.solExt[l.Start-o.lo2:l.Start-o.lo2+l.LocalN])
}
