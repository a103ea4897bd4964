package aztec

import (
	"fmt"

	"repro/internal/pmat"
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

	// halo exchanges the residual on the borrowed rows
	// [lo2, Start) ∪ [End, hi2); ghosts receives it, in row order.
	halo   *pmat.Halo
	ghosts []float64

	rhsExt []float64
	solExt []float64
}

// newOverlapSchwarz builds the extended subdomain factorization
// (collective).
func newOverlapSchwarz(rm RowMatrix, overlap int, drop, fill float64) (*overlapSchwarz, error) {
	m := rm.RowMap()
	c := m.Comm()
	l := m.Layout()
	lo2 := max(l.Start-overlap, 0)
	hi2 := min(l.Start+l.LocalN+overlap, l.N)
	o := &overlapSchwarz{m: m, lo2: lo2, hi2: hi2}

	// The borrowed rows are the halo's ghosts; its request lists tell
	// every rank which of its rows each peer borrows.
	var rows []int
	for g := lo2; g < hi2; g++ {
		if !l.Owns(g) {
			rows = append(rows, g)
		}
	}
	o.halo = pmat.NewHalo(l, rows, tagOvResid)
	o.ghosts = make([]float64, len(rows))

	// Serve the borrowed matrix rows, then receive ours, peers in
	// ascending order so the extended block assembles deterministically.
	p := c.Size()
	for r := 0; r < p; r++ {
		idx := o.halo.Sends(r)
		if len(idx) == 0 {
			continue
		}
		var meta []int
		var vals []float64
		for _, li := range idx {
			cols, v, err := rm.ExtractGlobalRowCopy(l.Start + li)
			if err != nil {
				return nil, fmt.Errorf("aztec: overlap row service: %w", err)
			}
			meta = append(meta, len(cols))
			meta = append(meta, cols...)
			vals = append(vals, v...)
		}
		c.SendInts(r, tagOvRowMeta, meta)
		c.SendFloat64s(r, tagOvRowVals, vals)
	}
	bCols := make([][]int, 0, len(rows))
	bVals := make([][]float64, 0, len(rows))
	for r := 0; r < p; r++ {
		n := len(o.halo.Recvs(r))
		if n == 0 {
			continue
		}
		meta, _ := c.RecvInts(r, tagOvRowMeta)
		vals, _ := c.RecvFloat64s(r, tagOvRowVals)
		pos, vpos := 0, 0
		for range n {
			nnz := meta[pos]
			pos++
			bCols = append(bCols, meta[pos:pos+nnz])
			bVals = append(bVals, vals[vpos:vpos+nnz])
			pos += nnz
			vpos += nnz
		}
	}

	// Assemble the extended block with columns truncated to [lo2, hi2)
	// (Dirichlet cut at the subdomain boundary), row by row straight into
	// CSR; the k-th borrowed row in row order is ghost k. The rows come
	// from a RowMatrix, so they are normalised once at the end; a
	// CrsMatrix's are canonical already and pass through.
	nExt := hi2 - lo2
	rp := make([]int, nExt+1)
	var ci []int
	var ev []float64
	k := 0
	for g := lo2; g < hi2; g++ {
		var cols []int
		var vals []float64
		if l.Owns(g) {
			var err error
			if cols, vals, err = rm.ExtractGlobalRowCopy(g); err != nil {
				return nil, err
			}
		} else {
			cols, vals = bCols[k], bVals[k]
			k++
		}
		for q, j := range cols {
			if j >= lo2 && j < hi2 {
				ci = append(ci, j-lo2)
				ev = append(ev, vals[q])
			}
		}
		rp[g-lo2+1] = len(ci)
	}
	f, err := NewILUT(sparse.Canonical(nExt, nExt, rp, ci, ev), drop, fill)
	if err != nil {
		return nil, fmt.Errorf("aztec: overlap subdomain factorization: %w", err)
	}
	o.f = f
	o.rhsExt = make([]float64, nExt)
	o.solExt = make([]float64, nExt)
	return o, nil
}

// apply implements preconditioner (collective: all ranks exchange the
// overlap residual values every call).
func (o *overlapSchwarz) apply(z, r []float64) {
	l := o.m.Layout()
	// Assemble the extended residual: [left overlap | local | right].
	o.halo.Post(r)
	left := l.Start - o.lo2
	copy(o.rhsExt[left:], r)
	o.halo.Wait(o.ghosts)
	copy(o.rhsExt, o.ghosts[:left])
	copy(o.rhsExt[left+l.LocalN:], o.ghosts[left:])
	o.f.Solve(o.solExt, o.rhsExt)
	copy(z, o.solExt[left:left+l.LocalN])
}
