package sparse

import (
	"encoding/binary"
	"math"
	"testing"
)

// decodeTriplets turns raw fuzz bytes into a bounded triplet set: the
// first two bytes size the matrix (1..32 each), then each 6-byte chunk
// decodes one (row, col, val) triplet. Indices are reduced mod the
// dimensions, so every decoded set is in range by construction — the
// fuzz target probes conversion/validation logic, not the documented
// panic on out-of-range Append.
func decodeTriplets(data []byte) (rows, cols int, ri, ci []int, v []float64) {
	if len(data) < 2 {
		return 1, 1, nil, nil, nil
	}
	rows = int(data[0])%32 + 1
	cols = int(data[1])%32 + 1
	data = data[2:]
	for len(data) >= 6 && len(v) < 512 {
		ri = append(ri, int(data[0])%rows)
		ci = append(ci, int(data[1])%cols)
		bits := uint64(binary.LittleEndian.Uint32(data[2:6]))
		// Spread a 32-bit pattern over negative/positive small floats;
		// avoid NaN/Inf so MulVec comparisons stay meaningful.
		val := float64(int32(bits)) / 1024.0
		v = append(v, val)
		data = data[6:]
	}
	return rows, cols, ri, ci, v
}

// FuzzCSRFromTriplets drives the COO→CSR conversion with arbitrary
// triplet sets (duplicates, empty rows, unsorted columns) and checks
// the structural CSR invariants plus numeric agreement between the COO
// and CSR operator applications.
func FuzzCSRFromTriplets(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0, 0, 1, 0, 0, 0, 1, 1, 2, 0, 0, 0, 2, 2, 3, 0, 0, 0})
	// Duplicate entries at one coordinate: conversion must sum them.
	f.Add([]byte{2, 2, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0})
	f.Add([]byte{255, 255, 7, 9, 255, 255, 255, 255, 7, 9, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, ri, ci, v := decodeTriplets(data)
		coo := &COO{Rows: rows, Cols: cols, Row: ri, Col: ci, Val: v}
		a := coo.ToCSR()

		// Structural invariants, via the validating constructor: a CSR
		// produced by conversion must be accepted by NewCSR verbatim.
		if _, err := NewCSR(a.Rows, a.Cols, a.RowPtr, a.ColInd, a.Vals); err != nil {
			t.Fatalf("ToCSR output fails NewCSR validation: %v", err)
		}
		if a.Rows != rows || a.Cols != cols {
			t.Fatalf("dims changed: %dx%d -> %dx%d", rows, cols, a.Rows, a.Cols)
		}
		if a.NNZ() > len(v) {
			t.Fatalf("conversion grew nnz: %d triplets -> %d entries", len(v), a.NNZ())
		}
		for i := 0; i < a.Rows; i++ {
			for p := a.RowPtr[i] + 1; p < a.RowPtr[i+1]; p++ {
				if a.ColInd[p-1] >= a.ColInd[p] {
					t.Fatalf("row %d columns not strictly sorted: %v", i, a.ColInd[a.RowPtr[i]:a.RowPtr[i+1]])
				}
			}
		}

		// Metamorphic check: the COO and CSR forms are the same operator.
		x := make([]float64, cols)
		for j := range x {
			x[j] = float64(j%7) - 3
		}
		yCOO := make([]float64, rows)
		yCSR := make([]float64, rows)
		for k, v := range coo.Val {
			yCOO[coo.Row[k]] += v * x[coo.Col[k]]
		}
		a.MulVec(yCSR, x)
		for i := range yCOO {
			diff := math.Abs(yCOO[i] - yCSR[i])
			scale := math.Abs(yCOO[i]) + math.Abs(yCSR[i]) + 1
			if diff/scale > 1e-12 {
				t.Fatalf("row %d: COO*x = %g, CSR*x = %g", i, yCOO[i], yCSR[i])
			}
		}

		// Round trip: CSR→COO→CSR is the identity on canonical form.
		b := a.ToCOO().ToCSR()
		if !a.Equal(b) {
			t.Fatal("CSR -> COO -> CSR changed the matrix")
		}
	})
}

// FuzzNewCSRValidation throws arbitrary rowPtr/colInd structures at the
// validating constructor: it must return an error or a usable matrix,
// never panic and never accept a structurally broken one.
func FuzzNewCSRValidation(f *testing.F) {
	f.Add([]byte{2, 2}, []byte{0, 1, 2}, []byte{0, 1})
	f.Add([]byte{1, 1}, []byte{0, 5}, []byte{9})
	f.Add([]byte{3, 2}, []byte{0, 2, 1, 2}, []byte{0, 1})
	f.Fuzz(func(t *testing.T, dims, rp, ciBytes []byte) {
		if len(dims) < 2 {
			return
		}
		rows := int(dims[0]) % 8
		cols := int(dims[1]) % 8
		rowPtr := make([]int, len(rp))
		for i, b := range rp {
			rowPtr[i] = int(b) - 2 // negatives reachable
		}
		colInd := make([]int, len(ciBytes))
		vals := make([]float64, len(ciBytes))
		for i, b := range ciBytes {
			colInd[i] = int(b) - 2
			vals[i] = float64(b)
		}
		a, err := NewCSR(rows, cols, rowPtr, colInd, vals)
		if err != nil {
			return
		}
		// Accepted: the matrix must be safely usable.
		x := make([]float64, cols)
		y := make([]float64, rows)
		a.MulVec(y, x)
		_ = a.NNZ()
	})
}
