package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// fuzzValues are the entry values the door fuzz draws from: signed
// zeros, subnormals, and values whose sums round, so a change in the
// order duplicates are added shows in the bits.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 1, -1, 0.1, 1.0 / 3, -2.5, 1e308, 3e-300,
}

func fuzzValue(b byte) float64 {
	if int(b) < len(fuzzValues) {
		return fuzzValues[b]
	}
	return float64(int8(b)) / 7
}

// refDoor is the route the CSR and MSR cases of SetupMatrixOffset took
// before they wrote CSR arrays directly: every entry appended to a COO
// in input order, then cooToCSR. It assumes input the door accepted.
func refDoor(values []float64, rows, cols []int, ds SparseStruct, nnz, offset, startRow, localRows, globalCols int) *sparse.CSR {
	local := sparse.NewCOO(localRows, globalCols)
	for li := 0; li < localRows; li++ {
		if ds == MSR && values[li] != 0 {
			local.Append(li, startRow+li, values[li])
		}
		idx := cols
		if ds == MSR {
			idx = rows
		}
		for k := rows[li] - offset; k < rows[li+1]-offset; k++ {
			local.Append(li, idx[k]-offset, values[k])
		}
	}
	return cooToCSR(local)
}

// cooToCSR is COO.ToCSR as it was before its per-row step became
// sparse.Canonical, kept verbatim so the fuzz target below compares the
// door against the old route end to end, sort included.
func cooToCSR(c *sparse.COO) *sparse.CSR {
	nnz := len(c.Val)
	rp := make([]int, c.Rows+1)
	for _, i := range c.Row {
		rp[i+1]++
	}
	for i := 0; i < c.Rows; i++ {
		rp[i+1] += rp[i]
	}
	ci := make([]int, nnz)
	v := make([]float64, nnz)
	next := make([]int, c.Rows)
	copy(next, rp[:c.Rows])
	for k := range c.Val {
		i := c.Row[k]
		p := next[i]
		ci[p] = c.Col[k]
		v[p] = c.Val[k]
		next[i]++
	}
	// Sort each row by column and merge duplicates, compacting through a
	// per-row scratch copy (writes may move left past unread entries, so
	// the row must be snapshotted first). A row that scattered strictly
	// ascending has nothing to sort or merge and is moved down as it is.
	// For the rest, sort.Slice is unstable, so the order in which three or
	// more duplicates of one entry are added — and with it the last bit
	// of their sum — is whatever the sort makes of it; that is left as it
	// has always been.
	outPtr := make([]int, c.Rows+1)
	var scratchIdx []int
	var scratchVal []float64
	w := 0
	for i := 0; i < c.Rows; i++ {
		lo, hi := rp[i], rp[i+1]
		n := hi - lo
		ascending := true
		for k := lo + 1; k < hi && ascending; k++ {
			ascending = ci[k-1] < ci[k]
		}
		if ascending {
			copy(ci[w:], ci[lo:hi])
			copy(v[w:], v[lo:hi])
			w += n
			outPtr[i+1] = w
			continue
		}
		scratchIdx = append(scratchIdx[:0], ci[lo:hi]...)
		scratchVal = append(scratchVal[:0], v[lo:hi]...)
		order := make([]int, n)
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool { return scratchIdx[order[a]] < scratchIdx[order[b]] })
		prev := -1
		for _, k := range order {
			j := scratchIdx[k]
			if j == prev {
				v[w-1] += scratchVal[k]
				continue
			}
			ci[w] = j
			v[w] = scratchVal[k]
			prev = j
			w++
		}
		outPtr[i+1] = w
	}
	return &sparse.CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: outPtr, ColInd: ci[:w], Vals: v[:w]}
}

// sameBits reports whether two CSRs agree in shape, pattern and every
// value's bits (so +0 and −0 differ).
func sameBits(a, b *sparse.CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.ColInd) != len(b.ColInd) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColInd {
		if a.ColInd[k] != b.ColInd[k] || math.Float64bits(a.Vals[k]) != math.Float64bits(b.Vals[k]) {
			return false
		}
	}
	return true
}

// FuzzDoorMatchesCOO drives the CSR and MSR doors with raw local rows —
// unsorted, with three or more duplicates of one entry, empty, holding
// ±0 and subnormals, with column indices on both sides of the owned
// range, at index base 0 and 1 — and requires the staged matrix to be
// that COO route's bit for bit.
func FuzzDoorMatchesCOO(f *testing.F) {
	f.Add([]byte{9, 3, 3, 0, 2, 8, 1, 0, 2, 0, 9, 5, 5, 5, 1, 2, 3, 4})
	f.Add([]byte{15, 5, 4, 1, 3, 4, 7, 4, 8, 4, 9, 0, 3, 1, 0, 1, 14, 2, 0, 11, 5, 5, 5, 5})
	f.Add([]byte{2, 1, 1, 1, 5, 1, 2, 1, 3, 1, 4, 0, 1, 0, 4})
	f.Add([]byte{12, 7, 200, 0, 0, 0, 5, 11, 0, 11, 1, 11, 2, 6, 9, 6, 8, 2, 5})
	// One 20-entry row over three columns with rounding values.
	f.Add([]byte{3, 0, 0, 0, 20, 1, 7, 2, 8, 0, 9, 1, 8, 2, 7, 0, 7, 1, 9, 2, 8, 0, 8, 1, 7, 2, 9, 0, 7,
		1, 8, 2, 7, 0, 9, 1, 7, 2, 8, 0, 8, 1, 9, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := 1 + int(next())%16
		localRows := 1 + int(next())%n
		startRow := int(next()) % (n - localRows + 1)
		offset := int(next()) & 1
		// CSR arrays, then the MSR arrays over the same rows.
		rp := []int{offset}
		ci := []int{} // the door refuses nil arrays, not empty ones
		vals := []float64{}
		for li := 0; li < localRows; li++ {
			// Up to 23 entries: sort.Slice sorts rows of 12 or fewer
			// by insertion, stably, and longer ones unstably.
			for k := int(next()) % 24; k > 0; k-- {
				ci = append(ci, int(next())%n+offset)
				vals = append(vals, fuzzValue(next()))
			}
			rp = append(rp, len(ci)+offset)
		}
		nnz := len(ci)
		msrVals := make([]float64, localRows+1+nnz)
		msrInd := make([]int, localRows+1+nnz)
		for li := 0; li < localRows; li++ {
			msrVals[li] = fuzzValue(next())
			msrInd[li] = rp[li] + localRows + 1
		}
		msrInd[localRows] = rp[localRows] + localRows + 1
		copy(msrVals[localRows+1:], vals)
		copy(msrInd[localRows+1:], ci)

		run(t, 1, func(c *comm.Comm) {
			s := NewKSPComponent()
			mustOK(t, s.Initialize(c), "Initialize")
			mustOK(t, s.SetStartRow(startRow), "SetStartRow")
			mustOK(t, s.SetLocalRows(localRows), "SetLocalRows")
			mustOK(t, s.SetGlobalCols(n), "SetGlobalCols")

			mustOK(t, s.SetupMatrixOffset(vals, rp, ci, CSR, localRows+1, nnz, offset), "CSR door")
			if want := refDoor(vals, rp, ci, CSR, nnz, offset, startRow, localRows, n); !sameBits(s.localA, want) {
				t.Fatalf("CSR door (offset %d) staged %+v, COO route %+v", offset, s.localA, want)
			}
			mustOK(t, s.SetupMatrixOffset(msrVals, msrInd, nil, MSR, len(msrInd), nnz, offset), "MSR door")
			if want := refDoor(msrVals, msrInd, nil, MSR, nnz, offset, startRow, localRows, n); !sameBits(s.localA, want) {
				t.Fatalf("MSR door (offset %d) staged %+v, COO route %+v", offset, s.localA, want)
			}
		})
	})
}
