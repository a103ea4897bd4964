package slu

import "repro/internal/par"

// levelSolve is the pooled triangular solve of a factored LU
// (EnableLevels): par.RowTri.Solve over row-major mirrors of the
// column-major factors. No solver path enables it — DistSolver's solves
// sweep the columns serially at every worker count — so it serves the
// benchmark's level-sweep probe. The mirrors keep the column sweeps' bits:
//
//   - Forward (L·x = c): the serial column sweep subtracts column k's
//     products from every later row in ascending k. A mirror row holds
//     its columns ascending and RowTri subtracts in storage order, so
//     each row's arithmetic sequence — and hence every bit — is the
//     column sweep's; only the execution order across independent rows
//     moves, which the level schedule constrains to dependency order.
//
//   - Backward (U·z = c): the serial sweep walks columns in descending k,
//     dividing by the diagonal stored last in each column. A mirror row
//     holds its columns descending, and the diagonal apart.
//
// Mirrors and level sets are Setup-time artifacts: built once per factor
// structure, their values rewritten in place when a refresh replays that
// structure (fill). The per-solve dispatch path allocates nothing.
type levelSolve struct {
	pool *par.Pool
	tri  par.RowTri

	lPtr, uPtr []int // mirror row pointers
	next       []int // fill's per-row cursor
}

// EnableLevels attaches an intra-rank worker pool to the triangular
// solves, building the row-major mirrors and level sets on first
// parallel use. A nil or serial pool restores the plain column sweeps.
// Idempotent and cheap once built, so callers may invoke it per solve.
func (f *LU) EnableLevels(p *par.Pool) {
	if !p.Parallel() {
		if f.ls != nil {
			f.ls.pool = nil
		}
		return
	}
	if f.ls == nil {
		f.ls = newLevelSolve(f)
	}
	f.ls.pool = p
	f.ls.tri.Schedule(p)
}

func newLevelSolve(f *LU) *levelSolve {
	n := f.n
	ls := &levelSolve{lPtr: make([]int, n+1), uPtr: make([]int, n+1), next: make([]int, n)}
	for k := 0; k < n; k++ {
		for p := f.lPtr[k] + 1; p < f.lPtr[k+1]; p++ {
			ls.lPtr[f.lRows[p]+1]++
		}
		for p := f.uPtr[k]; p < f.uPtr[k+1]-1; p++ {
			ls.uPtr[f.uRows[p]+1]++
		}
	}
	for i := 0; i < n; i++ {
		ls.lPtr[i+1] += ls.lPtr[i]
		ls.uPtr[i+1] += ls.uPtr[i]
	}
	ls.tri = par.RowTri{
		LLo: ls.lPtr[:n], LHi: ls.lPtr[1:],
		LCols: make([]int, ls.lPtr[n]), LVals: make([]float64, ls.lPtr[n]),
		ULo: ls.uPtr[:n], UHi: ls.uPtr[1:],
		UCols: make([]int, ls.uPtr[n]), UVals: make([]float64, ls.uPtr[n]),
		Diag: make([]float64, n),
	}
	ls.fill(f)
	return ls
}

// fill transposes f's entries into the mirrors. f must have the structure
// the row pointers were counted from — the factor ls was built for, or a
// replay of it, which moves values only: the level sets stay valid and
// nothing is allocated.
func (ls *levelSolve) fill(f *LU) {
	n, next, t := f.n, ls.next, &ls.tri
	copy(next, ls.lPtr[:n])
	for k := 0; k < n; k++ { // ascending k => ascending columns per row
		for p := f.lPtr[k] + 1; p < f.lPtr[k+1]; p++ {
			i := f.lRows[p]
			t.LCols[next[i]] = k
			t.LVals[next[i]] = f.lVals[p]
			next[i]++
		}
	}
	copy(next, ls.uPtr[:n])
	for k := n - 1; k >= 0; k-- { // descending k => descending columns per row
		dp := f.uPtr[k+1] - 1
		t.Diag[k] = f.uVals[dp]
		for p := f.uPtr[k]; p < dp; p++ {
			i := f.uRows[p]
			t.UCols[next[i]] = k
			t.UVals[next[i]] = f.uVals[p]
			next[i]++
		}
	}
}
