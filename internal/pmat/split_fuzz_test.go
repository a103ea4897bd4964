package pmat

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// The COO routes the split and the gather took before they became
// order-preserving filters of canonical rows, kept as the references
// FuzzSplitMatchesCOO compares them against. Both read the rows NewMat was
// given, not the matrix.

func refSplit(l *Layout, rows *sparse.CSR) (interior, boundary *sparse.CSR) {
	var ghosts []int
	for _, j := range rows.ColInd {
		if !l.Owns(j) {
			ghosts = append(ghosts, j)
		}
	}
	sort.Ints(ghosts)
	ghosts = slices.Compact(ghosts)
	intCOO := sparse.NewCOO(rows.Rows, l.LocalN)
	bndCOO := sparse.NewCOO(rows.Rows, len(ghosts))
	for i := 0; i < rows.Rows; i++ {
		cols, vals := rows.RowView(i)
		for k, j := range cols {
			if l.Owns(j) {
				intCOO.Append(i, j-l.Start, vals[k])
			} else {
				bndCOO.Append(i, sort.SearchInts(ghosts, j), vals[k])
			}
		}
	}
	return intCOO.ToCSR(), bndCOO.ToCSR()
}

func refGatherGlobal(l *Layout, rows *sparse.CSR) *sparse.CSR {
	coo := rows.ToCOO()
	rowsG := make([]int, len(coo.Row))
	for k, i := range coo.Row {
		rowsG[k] = i + l.Start
	}
	g := &sparse.COO{Rows: l.N, Cols: rows.Cols,
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
// requires the interior/boundary split and GatherGlobal to be the COO
// routes' bit for bit, and LocalRowsGlobal to give back the rows that
// went in. The triplets may repeat an entry any
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
			rows := local.ToCSR()
			m, err := NewMat(l, rows)
			if err != nil {
				t.Fatal(err)
			}
			wantInt, wantBnd := refSplit(l, rows)
			if !sameBits(m.interior, wantInt) || !sameBits(m.boundary, wantBnd) {
				t.Fatalf("rank %d: split %+v | %+v, COO route %+v | %+v", c.Rank(), m.interior, m.boundary, wantInt, wantBnd)
			}
			if got := m.LocalRowsGlobal(); !sameBits(got, rows) {
				t.Fatalf("rank %d: LocalRowsGlobal %+v, rows in %+v", c.Rank(), got, rows)
			}
			if got, want := m.GatherGlobal(), refGatherGlobal(l, rows); !sameBits(got, want) {
				t.Fatalf("rank %d: GatherGlobal %+v, COO route %+v", c.Rank(), got, want)
			}
		})
	})
}

// TestNewMatRejectsNonCanonicalRows: the split relies on ascending rows
// of columns inside the global range, so NewMatRect refuses a row out of
// order, with a repeated column, or with a column past the last (which
// would otherwise become a ghost no rank sends).
func TestNewMatRejectsNonCanonicalRows(t *testing.T) {
	for name, tc := range map[string]struct {
		cols []int
		want string
	}{
		"unsorted":     {[]int{2, 0}, "not strictly ascending"},
		"repeated":     {[]int{1, 1}, "not strictly ascending"},
		"out of range": {[]int{1, 3}, "out of range"},
	} {
		run(t, 1, func(c *comm.Comm) {
			l, err := EvenLayout(c, 3)
			if err != nil {
				t.Fatal(err)
			}
			a := &sparse.CSR{Rows: 3, Cols: 3, RowPtr: []int{0, 1, 3, 4}, ColInd: []int{0, tc.cols[0], tc.cols[1], 2}, Vals: []float64{1, 2, 3, 4}}
			if _, err := NewMat(l, a); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s row 1: NewMat error %v, want a %q refusal", name, err, tc.want)
			}
		})
	}
}
