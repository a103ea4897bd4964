package pmat

import (
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// The COO routes the split, the diagonal block and the gather took
// before they became order-preserving filters of canonical rows, kept as
// the references FuzzSplitMatchesCOO compares them against.

func refSplit(m *Mat) (interior, boundary *sparse.CSR) {
	nLoc := m.C.LocalN
	intCOO := sparse.NewCOO(m.L.LocalN, nLoc)
	bndCOO := sparse.NewCOO(m.L.LocalN, len(m.ghostCols))
	for i := 0; i < m.L.LocalN; i++ {
		cols, vals := m.local.RowView(i)
		for k, j := range cols {
			if j < nLoc {
				intCOO.Append(i, j, vals[k])
			} else {
				bndCOO.Append(i, j-nLoc, vals[k])
			}
		}
	}
	return intCOO.ToCSR(), bndCOO.ToCSR()
}

func refDiagBlock(m *Mat) *sparse.CSR {
	coo := sparse.NewCOO(m.L.LocalN, m.L.LocalN)
	for i := 0; i < m.L.LocalN; i++ {
		cols, vals := m.local.RowView(i)
		for k, j := range cols {
			if j < m.L.LocalN {
				coo.Append(i, j, vals[k])
			}
		}
	}
	return coo.ToCSR()
}

func refGatherGlobal(m *Mat) *sparse.CSR {
	l := m.L
	coo := m.LocalRowsGlobal().ToCOO()
	rowsG := make([]int, len(coo.Row))
	for k, i := range coo.Row {
		rowsG[k] = i + l.Start
	}
	g := &sparse.COO{Rows: l.N, Cols: m.C.N,
		Row: l.c.AllGatherVInts(rowsG), Col: l.c.AllGatherVInts(coo.Col), Val: l.c.AllGatherVFloat64s(coo.Val)}
	return g.ToCSR()
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

// splitValues holds signed zeros and subnormals beside ordinary values.
var splitValues = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 1, -1, 0.1, 1.0 / 3}

// FuzzSplitMatchesCOO distributes random rows over three ranks, so the
// middle rank has ghost columns on both sides of its owned range, and
// requires the interior/boundary split, DiagBlock and GatherGlobal to be
// the COO routes' bit for bit. The triplets may repeat an entry any
// number of times and leave rows empty; COO.ToCSR, the normaliser,
// makes them the canonical rows NewMat takes.
func FuzzSplitMatchesCOO(f *testing.F) {
	f.Add([]byte{6, 2, 0, 1, 2, 3, 2, 2, 5, 0, 3, 0, 4, 3, 5, 6, 5, 1, 0, 1})
	f.Add([]byte{12, 5, 0, 3, 5, 11, 4, 5, 7, 2, 5, 7, 2, 5, 7, 3, 6, 1, 8, 6, 10, 8, 9, 1, 3})
	f.Add([]byte{3, 0, 0, 0, 1, 2, 2, 2, 4})
	f.Add([]byte{20, 9, 1, 9, 19, 5, 9, 10, 6, 9, 0, 7, 10, 10, 8, 11, 3, 4, 11, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 3 + int(data[0])%22
		data = data[1:]
		var ri, ci []int
		var v []float64
		for ; len(data) >= 3; data = data[3:] {
			ri = append(ri, int(data[0])%n)
			ci = append(ci, int(data[1])%n)
			b := data[2]
			if int(b) < len(splitValues) {
				v = append(v, splitValues[b])
			} else {
				v = append(v, float64(int8(b))/7)
			}
		}
		run(t, 3, func(c *comm.Comm) {
			l, err := EvenLayout(c, n)
			if err != nil {
				t.Fatal(err)
			}
			local := sparse.NewCOO(l.LocalN, n)
			for k := range ri {
				if l.Owns(ri[k]) {
					local.Append(ri[k]-l.Start, ci[k], v[k])
				}
			}
			m, err := NewMat(l, local.ToCSR())
			if err != nil {
				t.Fatal(err)
			}
			interior, boundary := m.split()
			wantInt, wantBnd := refSplit(m)
			if !sameBits(interior, wantInt) || !sameBits(boundary, wantBnd) {
				t.Fatalf("rank %d: split %+v | %+v, COO route %+v | %+v", c.Rank(), interior, boundary, wantInt, wantBnd)
			}
			if got, want := m.DiagBlock(), refDiagBlock(m); !sameBits(got, want) {
				t.Fatalf("rank %d: DiagBlock %+v, COO route %+v", c.Rank(), got, want)
			}
			if got, want := m.GatherGlobal(), refGatherGlobal(m); !sameBits(got, want) {
				t.Fatalf("rank %d: GatherGlobal %+v, COO route %+v", c.Rank(), got, want)
			}
		})
	})
}

// TestNewMatRejectsNonCanonicalRows: the split relies on ascending rows,
// so NewMatRect refuses a row out of order or with a repeated column.
func TestNewMatRejectsNonCanonicalRows(t *testing.T) {
	for name, cols := range map[string][]int{"unsorted": {2, 0}, "repeated": {1, 1}} {
		run(t, 1, func(c *comm.Comm) {
			l, err := EvenLayout(c, 3)
			if err != nil {
				t.Fatal(err)
			}
			a := &sparse.CSR{Rows: 3, Cols: 3, RowPtr: []int{0, 1, 3, 4}, ColInd: []int{0, cols[0], cols[1], 2}, Vals: []float64{1, 2, 3, 4}}
			if _, err := NewMat(l, a); err == nil || !strings.Contains(err.Error(), "not strictly ascending") {
				t.Errorf("%s row 1: NewMat error %v, want a not-strictly-ascending refusal", name, err)
			}
		})
	}
}
