package sparse

import "fmt"

// MSR is the SPARSKIT "modified sparse row" format for square matrices.
// Two parallel arrays of length nnz+1 are used:
//
//	Val[0:n]      — the main diagonal (stored even when zero)
//	Val[n]        — unused (kept for SPARSKIT layout compatibility)
//	Val[n+1:]     — off-diagonal values, rows in order
//	Ind[0:n+1]    — Ind[i] is the start of row i's off-diagonals in Val
//	Ind[n+1:]     — the column indices of the off-diagonal values
//
// Off-diagonal column indices within a row are kept sorted.
type MSR struct {
	N   int
	Val []float64
	Ind []int
}

// MSRFromCSR converts a square CSR matrix to MSR format.
func MSRFromCSR(a *CSR) (*MSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: MSRFromCSR: matrix is %dx%d, MSR requires square", a.Rows, a.Cols)
	}
	n := a.Rows
	offDiag := 0
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColInd[k] != i {
				offDiag++
			}
		}
	}
	val := make([]float64, n+1+offDiag)
	ind := make([]int, n+1+offDiag)
	p := n + 1
	for i := 0; i < n; i++ {
		ind[i] = p
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColInd[k]
			if j == i {
				val[i] = a.Vals[k]
				continue
			}
			val[p] = a.Vals[k]
			ind[p] = j
			p++
		}
	}
	ind[n] = p
	return &MSR{N: n, Val: val, Ind: ind}, nil
}

// MSROrderedFromCSR converts to MSR and also returns the diagonal
// split positions the order-exact kernel needs: split[i] is the
// absolute Val/Ind index at which row i's diagonal term belongs in
// ascending-column order (it may equal Ind[i+1] when the diagonal is
// the row's last entry), or -1 when the CSR stores no diagonal entry —
// MSR's diagonal slot is structural, so a missing CSR diagonal must
// contribute no term at all if the product is to reproduce the CSR
// bits (even adding 0.0 can flip the sign of a -0.0 partial sum).
func MSROrderedFromCSR(a *CSR) (*MSR, []int, error) {
	m, err := MSRFromCSR(a)
	if err != nil {
		return nil, nil, err
	}
	split := make([]int, m.N)
	for i := 0; i < m.N; i++ {
		split[i] = -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColInd[k] == i {
				// Off-diagonals keep CSR order, so the diagonal's slot
				// is its CSR position offset into the off-diagonal run.
				split[i] = m.Ind[i] + (k - a.RowPtr[i])
				break
			}
		}
	}
	return m, split, nil
}
