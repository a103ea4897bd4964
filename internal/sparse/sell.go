package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// SELL is the SELL-C-σ (sliced ELLPACK with row sorting) format. Rows
// are reordered by a permutation that sorts each σ-row window by
// descending row length (stable, so equal-length rows keep their
// order), then grouped into chunks of C consecutive sorted rows. Each
// chunk stores its entries column-step-major: step j holds the j-th
// stored entry of every row in the chunk that has one, padded to the
// chunk height so step j of chunk ch starts at ChunkPtr[ch] + j*cc.
//
// Because rows inside a chunk are sorted by descending length, the rows
// active at step j are exactly the leading cnt(j) lanes — the kernels
// walk that prefix and never read a padding slot, so no padded zero
// ever enters the arithmetic. Combined with steps preserving each
// row's CSR entry order, every row accumulates in exactly the serial
// CSR sequence: results are bitwise-identical to CSR.MulVec for any
// chunk size, σ, and worker count.
type SELL struct {
	Rows, Cols int
	C          int // chunk height (rows per chunk)

	// Perm maps sorted position -> original row index; nil means the
	// sort was the identity (uniform row lengths), letting the kernels
	// skip the scatter indirection.
	Perm []int

	// Lens[p] is the stored length of the row at sorted position p;
	// non-increasing within each chunk.
	Lens []int

	// ChunkPtr[ch] is the offset of chunk ch's entries in Vals/ColInd;
	// len(ChunkPtr) == NumChunks()+1. Padding slots hold zero values
	// and column 0 but are never dereferenced by the kernels.
	ChunkPtr []int
	ColInd   []int
	Vals     []float64
}

// DefaultSELLChunk is the default chunk height: long enough that the
// unrolled lane loop amortizes the per-step bookkeeping, short enough
// that the accumulator scratch stays in L1.
const DefaultSELLChunk = 32

// TunedSELLChunk returns the chunk height to use for a matrix with the
// given row count on a pool with the given worker count (0 or 1 means
// serial). The chunk is shrunk from DefaultSELLChunk only when needed
// so that every worker's static slot range covers at least one whole
// chunk — the pooled kernel partitions work at chunk granularity, so
// this keeps all workers busy on small operators.
func TunedSELLChunk(rows, workers int) int {
	c := DefaultSELLChunk
	if workers > 1 {
		for c > 4 && rows/c < workers {
			c /= 2
		}
	}
	return c
}

// SELLFromCSR converts a CSR matrix to SELL-C-σ. chunk is the chunk
// height C (≤ 0 selects DefaultSELLChunk); the sorting window σ is
// fixed at 8 chunks, a multiple of C so windows never straddle a chunk
// boundary. The conversion preallocates every array from a first
// counting pass, so its allocation count is constant in the matrix size
// (TestConverterAllocsConstant).
func SELLFromCSR(a *CSR, chunk int) *SELL {
	c := chunk
	if c <= 0 {
		c = DefaultSELLChunk
	}
	n := a.Rows
	s := &SELL{Rows: n, Cols: a.Cols, C: c}

	// Sort each σ window by descending row length (stable). The
	// identity check lets uniform matrices skip the scatter.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sigma := 8 * c
	for w0 := 0; w0 < n; w0 += sigma {
		w1 := w0 + sigma
		if w1 > n {
			w1 = n
		}
		slices.SortStableFunc(perm[w0:w1], func(i, j int) int {
			return cmp.Compare(a.RowPtr[j+1]-a.RowPtr[j], a.RowPtr[i+1]-a.RowPtr[i])
		})
	}
	identity := true
	for p, i := range perm {
		if p != i {
			identity = false
			break
		}
	}

	s.Lens = make([]int, n)
	for p, i := range perm {
		s.Lens[p] = a.RowPtr[i+1] - a.RowPtr[i]
	}
	nch := (n + c - 1) / c
	s.ChunkPtr = make([]int, nch+1)
	for ch := 0; ch < nch; ch++ {
		r0, r1 := ch*c, (ch+1)*c
		if r1 > n {
			r1 = n
		}
		maxLen := 0
		if r1 > r0 {
			maxLen = s.Lens[r0] // non-increasing within the chunk
		}
		s.ChunkPtr[ch+1] = s.ChunkPtr[ch] + maxLen*(r1-r0)
	}
	total := s.ChunkPtr[nch]
	s.ColInd = make([]int, total)
	s.Vals = make([]float64, total)
	for ch := 0; ch < nch; ch++ {
		r0, r1 := ch*c, (ch+1)*c
		if r1 > n {
			r1 = n
		}
		cc := r1 - r0
		base := s.ChunkPtr[ch]
		for l := 0; l < cc; l++ {
			row := perm[r0+l]
			k0 := a.RowPtr[row]
			for j := 0; j < s.Lens[r0+l]; j++ {
				s.ColInd[base+j*cc+l] = a.ColInd[k0+j]
				s.Vals[base+j*cc+l] = a.Vals[k0+j]
			}
		}
	}
	if !identity {
		s.Perm = perm
	}
	return s
}

// NumChunks returns the number of row chunks.
func (s *SELL) NumChunks() int { return len(s.ChunkPtr) - 1 }

// Validate checks structural consistency: monotone chunk offsets sized
// by the chunk's leading row length, non-increasing lengths within each
// chunk, in-range columns for every live slot, and a permutation (when
// present) that is a bijection on [0, Rows).
func (s *SELL) Validate() error {
	n := s.Rows
	if s.C < 1 {
		return fmt.Errorf("sparse: SELL: chunk height %d", s.C)
	}
	if len(s.Lens) != n {
		return fmt.Errorf("sparse: SELL: Lens length %d, want %d", len(s.Lens), n)
	}
	nch := (n + s.C - 1) / s.C
	if len(s.ChunkPtr) != nch+1 || s.ChunkPtr[0] != 0 {
		return fmt.Errorf("sparse: SELL: bad ChunkPtr")
	}
	if s.Perm != nil {
		if len(s.Perm) != n {
			return fmt.Errorf("sparse: SELL: Perm length %d, want %d", len(s.Perm), n)
		}
		seen := make([]bool, n)
		for _, i := range s.Perm {
			if i < 0 || i >= n || seen[i] {
				return fmt.Errorf("sparse: SELL: Perm is not a permutation")
			}
			seen[i] = true
		}
	}
	for ch := 0; ch < nch; ch++ {
		r0, r1 := ch*s.C, (ch+1)*s.C
		if r1 > n {
			r1 = n
		}
		cc := r1 - r0
		maxLen := 0
		for l := 0; l < cc; l++ {
			ln := s.Lens[r0+l]
			if ln < 0 {
				return fmt.Errorf("sparse: SELL: negative length at position %d", r0+l)
			}
			if l > 0 && ln > s.Lens[r0+l-1] {
				return fmt.Errorf("sparse: SELL: lengths not sorted within chunk %d", ch)
			}
			if ln > maxLen {
				maxLen = ln
			}
		}
		if s.ChunkPtr[ch+1]-s.ChunkPtr[ch] != maxLen*cc {
			return fmt.Errorf("sparse: SELL: chunk %d spans %d slots, want %d", ch, s.ChunkPtr[ch+1]-s.ChunkPtr[ch], maxLen*cc)
		}
		base := s.ChunkPtr[ch]
		for l := 0; l < cc; l++ {
			for j := 0; j < s.Lens[r0+l]; j++ {
				if jc := s.ColInd[base+j*cc+l]; jc < 0 || jc >= s.Cols {
					return fmt.Errorf("sparse: SELL: column %d out of range", jc)
				}
			}
		}
	}
	if s.ChunkPtr[nch] != len(s.Vals) || len(s.Vals) != len(s.ColInd) {
		return fmt.Errorf("sparse: SELL: storage length mismatch")
	}
	return nil
}

// mulChunk computes the products of chunk ch into acc (one slot per
// lane, accumulated in each row's CSR entry order) and returns the
// chunk's row range. acc must have length ≥ the chunk height.
func (s *SELL) mulChunk(ch int, acc, x []float64) (r0, r1 int) {
	r0, r1 = ch*s.C, (ch+1)*s.C
	if r1 > s.Rows {
		r1 = s.Rows
	}
	cc := r1 - r0
	for l := 0; l < cc; l++ {
		acc[l] = 0
	}
	maxLen := 0
	if cc > 0 {
		maxLen = s.Lens[r0]
	}
	base := s.ChunkPtr[ch]
	cnt := cc
	for j := 0; j < maxLen; j++ {
		for cnt > 0 && s.Lens[r0+cnt-1] <= j {
			cnt--
		}
		off := base + j*cc
		v := s.Vals[off : off+cnt]
		ci := s.ColInd[off : off+cnt]
		l := 0
		for ; l+4 <= cnt; l += 4 {
			acc[l] += v[l] * x[ci[l]]
			acc[l+1] += v[l+1] * x[ci[l+1]]
			acc[l+2] += v[l+2] * x[ci[l+2]]
			acc[l+3] += v[l+3] * x[ci[l+3]]
		}
		for ; l < cnt; l++ {
			acc[l] += v[l] * x[ci[l]]
		}
	}
	return r0, r1
}

// scatterChunk writes acc back to y for the chunk rows, through Perm
// when present, adding when add is set.
func (s *SELL) scatterChunk(r0, r1 int, acc, y []float64, add bool) {
	if s.Perm == nil {
		if add {
			for l, r := 0, r0; r < r1; l, r = l+1, r+1 {
				y[r] += acc[l]
			}
		} else {
			for l, r := 0, r0; r < r1; l, r = l+1, r+1 {
				y[r] = acc[l]
			}
		}
		return
	}
	if add {
		for l, p := 0, r0; p < r1; l, p = l+1, p+1 {
			y[s.Perm[p]] += acc[l]
		}
	} else {
		for l, p := 0, r0; p < r1; l, p = l+1, p+1 {
			y[s.Perm[p]] = acc[l]
		}
	}
}

// ToCSR expands back to CSR (exact inverse of SELLFromCSR).
func (s *SELL) ToCSR() *CSR {
	n := s.Rows
	rp := make([]int, n+1)
	for p, l := range s.Lens {
		row := p
		if s.Perm != nil {
			row = s.Perm[p]
		}
		rp[row+1] = l
	}
	for i := 0; i < n; i++ {
		rp[i+1] += rp[i]
	}
	ci := make([]int, rp[n])
	v := make([]float64, rp[n])
	for ch := 0; ch < s.NumChunks(); ch++ {
		r0, r1 := ch*s.C, (ch+1)*s.C
		if r1 > n {
			r1 = n
		}
		cc := r1 - r0
		base := s.ChunkPtr[ch]
		for l := 0; l < cc; l++ {
			row := r0 + l
			if s.Perm != nil {
				row = s.Perm[r0+l]
			}
			for j := 0; j < s.Lens[r0+l]; j++ {
				ci[rp[row]+j] = s.ColInd[base+j*cc+l]
				v[rp[row]+j] = s.Vals[base+j*cc+l]
			}
		}
	}
	out, err := NewCSR(n, s.Cols, rp, ci, v)
	if err != nil {
		panic(fmt.Sprintf("sparse: SELL.ToCSR: %v", err))
	}
	return out
}
