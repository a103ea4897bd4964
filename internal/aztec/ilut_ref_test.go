package aztec

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/sparse"
)

// This file keeps the ILUT row kernel production code used up to PR 17 —
// container/heap over boxed ints, fresh candidate slices per row, a full
// sort.Slice to keep the largest few — as the reference the rewritten
// kernel must reproduce array for array (ilut_oracle_test.go). One thing
// differs from what shipped: the keep-largest comparator is made total
// (larger |w| first, ties to the smaller column), because the unstable
// sort's answer on a tie that straddles the cut was an accident of the
// Go release's pdqsort, not a specification. It has none of the
// production kernel's non-finite checks.

type refIntHeap []int

func (h refIntHeap) Len() int           { return len(h) }
func (h refIntHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refIntHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refIntHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *refIntHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func refNewILUT(a *sparse.CSR, droptol, fill float64) (*ILUT, error) {
	n := a.Rows
	f := &ILUT{
		n:     n,
		lPtr:  make([]int, n+1),
		uPtr:  make([]int, n+1),
		uDiag: make([]float64, n),
	}
	w := make([]float64, n)      // dense accumulator
	inPattern := make([]bool, n) // membership in the current row pattern
	var lower refIntHeap         // pending lower-part columns
	var patternList []int        // every marked index of the current row

	for i := 0; i < n; i++ {
		cols, vals := a.RowView(i)
		rowNorm := sparse.Norm2(vals)
		if rowNorm == 0 {
			return nil, fmt.Errorf("ref ILUT: row %d is entirely zero", i)
		}
		tau := droptol * rowNorm
		nnzRow := len(cols)
		budget := int(math.Ceil(fill * float64(nnzRow) / 2))
		if budget < 1 {
			budget = 1
		}

		lower = lower[:0]
		patternList = patternList[:0]
		for k, j := range cols {
			w[j] = vals[k]
			inPattern[j] = true
			patternList = append(patternList, j)
			if j < i {
				heap.Push(&lower, j)
			}
		}

		// Eliminate lower-part entries in increasing column order.
		for lower.Len() > 0 {
			k := heap.Pop(&lower).(int)
			lik := w[k] / f.uDiag[k]
			if math.Abs(lik) <= tau {
				w[k] = 0
				inPattern[k] = false
				continue
			}
			w[k] = lik
			for p := f.uPtr[k]; p < f.uPtr[k+1]; p++ {
				j := f.uCols[p]
				if !inPattern[j] {
					inPattern[j] = true
					w[j] = 0
					patternList = append(patternList, j)
					if j < i {
						heap.Push(&lower, j)
					}
				}
				w[j] -= lik * f.uVals[p]
			}
		}

		// Gather surviving entries. Entries dropped during elimination
		// were unmarked but remain in patternList; skip them.
		var lCand, uCand []int
		for _, j := range patternList {
			if !inPattern[j] {
				continue
			}
			switch {
			case j < i:
				if math.Abs(w[j]) > tau {
					lCand = append(lCand, j)
				} else {
					w[j] = 0
					inPattern[j] = false
				}
			case j > i:
				if math.Abs(w[j]) > tau {
					uCand = append(uCand, j)
				} else {
					w[j] = 0
					inPattern[j] = false
				}
			}
		}
		refKeepLargest(&lCand, w, budget)
		refKeepLargest(&uCand, w, budget)
		sort.Ints(lCand)
		sort.Ints(uCand)

		for _, j := range lCand {
			f.lCols = append(f.lCols, j)
			f.lVals = append(f.lVals, w[j])
		}
		f.lPtr[i+1] = len(f.lCols)

		diag := w[i]
		if diag == 0 {
			diag = tau
			if diag == 0 {
				return nil, fmt.Errorf("ref ILUT: zero pivot at row %d with zero drop tolerance", i)
			}
		}
		f.uDiag[i] = diag
		for _, j := range uCand {
			f.uCols = append(f.uCols, j)
			f.uVals = append(f.uVals, w[j])
		}
		f.uPtr[i+1] = len(f.uCols)

		// Reset the accumulator and marks for the next row.
		for _, j := range patternList {
			w[j] = 0
			inPattern[j] = false
		}
	}
	return f, nil
}

// refKeepLargest truncates cand to its m entries of largest |w| value,
// an equal magnitude going to the smaller column.
func refKeepLargest(cand *[]int, w []float64, m int) {
	c := *cand
	if len(c) <= m {
		return
	}
	sort.Slice(c, func(a, b int) bool {
		wa, wb := math.Abs(w[c[a]]), math.Abs(w[c[b]])
		if wa > wb {
			return true
		}
		if wa < wb {
			return false
		}
		return c[a] < c[b]
	})
	for _, j := range c[m:] {
		w[j] = 0
	}
	*cand = c[:m]
}
