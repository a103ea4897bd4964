package sparse

import "fmt"

// VBR is the variable-block-row format: the matrix is partitioned into
// block rows and block columns, and only nonzero blocks are stored. The
// layout follows the SPARSKIT/Aztec convention:
//
//	RPntr[0..nbr]  — row partition; block row I spans rows RPntr[I]:RPntr[I+1]
//	CPntr[0..nbc]  — column partition
//	BPntr[0..nbr]  — BPntr[I]:BPntr[I+1] indexes BInd/Indx for block row I
//	BInd[k]        — block-column index of stored block k
//	Indx[k]        — offset of block k's values in Val (Indx has len nblk+1)
//	Val            — block entries, column-major within each block
type VBR struct {
	RPntr []int
	CPntr []int
	BPntr []int
	BInd  []int
	Indx  []int
	Val   []float64
}

// Dims returns the global (rows, cols).
func (a *VBR) Dims() (int, int) {
	return a.RPntr[len(a.RPntr)-1], a.CPntr[len(a.CPntr)-1]
}

// Validate checks structural consistency.
func (a *VBR) Validate() error {
	nbr := len(a.RPntr) - 1
	nbc := len(a.CPntr) - 1
	if nbr < 0 || nbc < 0 {
		return fmt.Errorf("sparse: VBR: empty partitions")
	}
	if len(a.BPntr) != nbr+1 {
		return fmt.Errorf("sparse: VBR: BPntr length %d, want %d", len(a.BPntr), nbr+1)
	}
	nblk := a.BPntr[nbr]
	if len(a.BInd) != nblk {
		return fmt.Errorf("sparse: VBR: BInd length %d, want %d", len(a.BInd), nblk)
	}
	if len(a.Indx) != nblk+1 {
		return fmt.Errorf("sparse: VBR: Indx length %d, want %d", len(a.Indx), nblk+1)
	}
	for I := 0; I < nbr; I++ {
		if a.RPntr[I] > a.RPntr[I+1] {
			return fmt.Errorf("sparse: VBR: RPntr not monotone at %d", I)
		}
		for k := a.BPntr[I]; k < a.BPntr[I+1]; k++ {
			J := a.BInd[k]
			if J < 0 || J >= nbc {
				return fmt.Errorf("sparse: VBR: block column %d out of range", J)
			}
			br := a.RPntr[I+1] - a.RPntr[I]
			bc := a.CPntr[J+1] - a.CPntr[J]
			if a.Indx[k+1]-a.Indx[k] != br*bc {
				return fmt.Errorf("sparse: VBR: block %d has %d values, want %dx%d", k, a.Indx[k+1]-a.Indx[k], br, bc)
			}
		}
	}
	if a.Indx[nblk] != len(a.Val) {
		return fmt.Errorf("sparse: VBR: Indx[end] = %d, want %d", a.Indx[nblk], len(a.Val))
	}
	return nil
}

// ToCSR expands the blocks to scalar CSR entries, dropping exact zeros
// introduced by block padding.
func (a *VBR) ToCSR() *CSR {
	rows, cols := a.Dims()
	coo := NewCOO(rows, cols)
	nbr := len(a.RPntr) - 1
	for I := 0; I < nbr; I++ {
		r0, r1 := a.RPntr[I], a.RPntr[I+1]
		br := r1 - r0
		for k := a.BPntr[I]; k < a.BPntr[I+1]; k++ {
			J := a.BInd[k]
			c0, c1 := a.CPntr[J], a.CPntr[J+1]
			blk := a.Val[a.Indx[k]:a.Indx[k+1]]
			for c := 0; c < c1-c0; c++ {
				for r := 0; r < br; r++ {
					if v := blk[c*br+r]; v != 0 {
						coo.Append(r0+r, c0+c, v)
					}
				}
			}
		}
	}
	return coo.ToCSR()
}

// VBRFromCSR converts a CSR matrix to VBR using the given row and column
// partitions. Blocks that contain at least one nonzero are stored densely
// (zero padding inside stored blocks).
func VBRFromCSR(a *CSR, rpntr, cpntr []int) (*VBR, error) {
	if len(rpntr) < 1 || rpntr[0] != 0 || rpntr[len(rpntr)-1] != a.Rows {
		return nil, fmt.Errorf("sparse: VBRFromCSR: row partition must span [0,%d]", a.Rows)
	}
	if len(cpntr) < 1 || cpntr[0] != 0 || cpntr[len(cpntr)-1] != a.Cols {
		return nil, fmt.Errorf("sparse: VBRFromCSR: column partition must span [0,%d]", a.Cols)
	}
	nbr := len(rpntr) - 1
	nbc := len(cpntr) - 1
	// Map scalar column -> block column.
	col2blk := make([]int, a.Cols)
	for J := 0; J < nbc; J++ {
		if cpntr[J] > cpntr[J+1] {
			return nil, fmt.Errorf("sparse: VBRFromCSR: column partition not monotone at %d", J)
		}
		for c := cpntr[J]; c < cpntr[J+1]; c++ {
			col2blk[c] = J
		}
	}
	// Pass 1: size everything up front — which blocks exist per block
	// row and the total padded value count — so the fill pass below
	// never grows a slice. present/blkPos are dense per-block-column
	// scratch reused across block rows (maps would also make the block
	// order depend on iteration order).
	v := &VBR{RPntr: rpntr, CPntr: cpntr, BPntr: make([]int, nbr+1)}
	present := make([]bool, nbc)
	blkPos := make([]int, nbc) // block col -> offset of its values
	nblk, nval := 0, 0
	for I := 0; I < nbr; I++ {
		if rpntr[I] > rpntr[I+1] {
			return nil, fmt.Errorf("sparse: VBRFromCSR: row partition not monotone at %d", I)
		}
		r0, r1 := rpntr[I], rpntr[I+1]
		br := r1 - r0
		for i := r0; i < r1; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				present[col2blk[a.ColInd[k]]] = true
			}
		}
		for J := 0; J < nbc; J++ {
			if present[J] {
				present[J] = false
				nblk++
				nval += br * (cpntr[J+1] - cpntr[J])
			}
		}
	}
	v.BInd = make([]int, 0, nblk)
	v.Indx = make([]int, 1, nblk+1)
	v.Val = make([]float64, nval)

	// Pass 2: fill. Blocks are appended in ascending block-column order
	// within each block row, into the preallocated arrays.
	pos := 0
	for I := 0; I < nbr; I++ {
		r0, r1 := rpntr[I], rpntr[I+1]
		br := r1 - r0
		for i := r0; i < r1; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				present[col2blk[a.ColInd[k]]] = true
			}
		}
		for J := 0; J < nbc; J++ {
			if !present[J] {
				continue
			}
			present[J] = false
			bc := cpntr[J+1] - cpntr[J]
			blkPos[J] = pos
			pos += br * bc
			v.BInd = append(v.BInd, J)
			v.Indx = append(v.Indx, pos)
		}
		for i := r0; i < r1; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := a.ColInd[k]
				J := col2blk[j]
				v.Val[blkPos[J]+(j-cpntr[J])*br+(i-r0)] = a.Vals[k]
			}
		}
		v.BPntr[I+1] = len(v.BInd)
	}
	return v, nil
}
