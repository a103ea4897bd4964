package slu

import "repro/internal/par"

// levelSolve is the level-scheduled triangular-solve engine for a
// factored LU (EnableLevels). The factors are stored column-major for
// the left-looking factorization, so the parallel solves use row-major
// mirrors built once per factor:
//
//   - Forward (L·x = c): the serial column sweep scatters column k into
//     every later row in ascending k, skipping columns whose solution
//     entry is exactly zero. The row-gather form subtracts the same
//     products from row i in the same ascending-k order with the same
//     zero skip, so each row's arithmetic sequence — and hence every
//     bit — is unchanged; only the execution order across independent
//     rows moves, which the level schedule constrains to dependency
//     order.
//
//   - Backward (U·z = c): the serial sweep walks columns in descending
//     k, dividing by the diagonal stored last in each column. The
//     row-gather iterates each mirror row descending, divides by the
//     mirrored diagonal, and skips exact zeros identically.
//
// Mirrors and level sets are Setup-time artifacts: built once per factor
// structure, their values rewritten in place when a refresh replays that
// structure (fill). The per-solve dispatch path allocates nothing.
type levelSolve struct {
	pool *par.Pool

	// Strict lower triangle of L by factor row, columns ascending.
	lrPtr, lrCols []int
	lrVals        []float64
	// Strict upper triangle of U by factor row, columns ascending
	// (iterated descending), plus the diagonal by row.
	urPtr, urCols []int
	urVals        []float64
	uDiag         []float64
	next          []int // fill's per-row cursor

	lvlF, lvlB *par.Levels
	fwd, bwd   sluSweepTask
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
}

func newLevelSolve(f *LU) *levelSolve {
	n := f.n
	ls := &levelSolve{}

	ls.lrPtr = make([]int, n+1)
	ls.urPtr = make([]int, n+1)
	for k := 0; k < n; k++ {
		for p := f.lPtr[k] + 1; p < f.lPtr[k+1]; p++ {
			ls.lrPtr[f.lRows[p]+1]++
		}
		for p := f.uPtr[k]; p < f.uPtr[k+1]-1; p++ {
			ls.urPtr[f.uRows[p]+1]++
		}
	}
	for i := 0; i < n; i++ {
		ls.lrPtr[i+1] += ls.lrPtr[i]
		ls.urPtr[i+1] += ls.urPtr[i]
	}
	ls.lrCols = make([]int, ls.lrPtr[n])
	ls.lrVals = make([]float64, ls.lrPtr[n])
	ls.urCols = make([]int, ls.urPtr[n])
	ls.urVals = make([]float64, ls.urPtr[n])
	ls.uDiag = make([]float64, n)
	ls.next = make([]int, n)
	ls.fill(f)

	ls.lvlF = par.LowerLevels(n, func(i int, visit func(j int)) {
		for p := ls.lrPtr[i]; p < ls.lrPtr[i+1]; p++ {
			visit(ls.lrCols[p])
		}
	})
	ls.lvlB = par.UpperLevels(n, func(i int, visit func(j int)) {
		for p := ls.urPtr[i]; p < ls.urPtr[i+1]; p++ {
			visit(ls.urCols[p])
		}
	})
	ls.fwd = sluSweepTask{ls: ls}
	ls.bwd = sluSweepTask{ls: ls, back: true}
	return ls
}

// fill transposes f's entries into the mirrors. f must have the structure
// the row pointers were counted from — the factor ls was built for, or a
// replay of it, which moves values only: the level sets stay valid and
// nothing is allocated.
func (ls *levelSolve) fill(f *LU) {
	n, next := f.n, ls.next
	copy(next, ls.lrPtr[:n])
	for k := 0; k < n; k++ { // ascending k => ascending columns per row
		for p := f.lPtr[k] + 1; p < f.lPtr[k+1]; p++ {
			i := f.lRows[p]
			ls.lrCols[next[i]] = k
			ls.lrVals[next[i]] = f.lVals[p]
			next[i]++
		}
	}
	copy(next, ls.urPtr[:n])
	for k := 0; k < n; k++ {
		dp := f.uPtr[k+1] - 1
		ls.uDiag[k] = f.uVals[dp]
		for p := f.uPtr[k]; p < dp; p++ {
			i := f.uRows[p]
			ls.urCols[next[i]] = k
			ls.urVals[next[i]] = f.uVals[p]
			next[i]++
		}
	}
}

// sluSweepTask gathers one level's rows; each row reads only entries
// finalized in earlier levels and writes only its own c slot.
type sluSweepTask struct {
	ls   *levelSolve
	rows []int
	c    []float64
	back bool
}

func (t *sluSweepTask) SetRows(rows []int) { t.rows = rows }

func (t *sluSweepTask) Range(_, lo, hi int) {
	ls := t.ls
	if t.back {
		for q := lo; q < hi; q++ {
			i := t.rows[q]
			s := t.c[i]
			for p := ls.urPtr[i+1] - 1; p >= ls.urPtr[i]; p-- {
				if zk := t.c[ls.urCols[p]]; zk != 0 {
					s -= ls.urVals[p] * zk
				}
			}
			t.c[i] = s / ls.uDiag[i]
		}
		return
	}
	for q := lo; q < hi; q++ {
		i := t.rows[q]
		s := t.c[i]
		for p := ls.lrPtr[i]; p < ls.lrPtr[i+1]; p++ {
			if xk := t.c[ls.lrCols[p]]; xk != 0 {
				s -= ls.lrVals[p] * xk
			}
		}
		t.c[i] = s
	}
}

// lSolve / uSolve run the level schedules on the pool.
func (ls *levelSolve) lSolve(c []float64) {
	ls.fwd.c = c
	ls.lvlF.Sweep(ls.pool, &ls.fwd)
	ls.fwd.c = nil
}

func (ls *levelSolve) uSolve(c []float64) {
	ls.bwd.c = c
	ls.lvlB.Sweep(ls.pool, &ls.bwd)
	ls.bwd.c = nil
}
