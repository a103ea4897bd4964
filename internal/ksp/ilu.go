package ksp

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/sparse"
)

// ILU0 holds an incomplete LU factorization with zero fill of a local
// (serial) CSR matrix: L is unit lower triangular, U upper triangular,
// both stored combined in a copy of A's pattern. tri describes the two
// halves of that storage to the shared triangular-sweep kernel.
type ILU0 struct {
	a    *sparse.CSR // combined L\U factors on A's pattern
	tri  *par.RowTri
	pool *par.Pool
}

// EnableLevels attaches an intra-rank worker pool to the triangular
// sweeps, building the level-set schedules on first parallel use.
// Idempotent; pass nil (or a 1-worker pool) to stay serial. No solver
// path calls it: the block-ILU preconditioner sweeps serially at every
// worker count, and only the benchmark's level-sweep probe measures
// the pooled schedule.
func (f *ILU0) EnableLevels(p *par.Pool) {
	f.pool = p
	f.tri.Schedule(p)
}

// NewILU0 factors the local square matrix a with ILU(0). Rows must contain
// a structural diagonal entry; a zero or numerically tiny pivot is an
// error (the same failure SuperLU/PETSc report).
func NewILU0(a *sparse.CSR) (*ILU0, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("ksp: ILU0 requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	f := a.Clone()
	diagPos := make([]int, n)
	pos := make([]int, n) // col -> position in current row, -1 otherwise
	for j := range pos {
		pos[j] = -1
	}
	for i := 0; i < n; i++ {
		lo, hi := f.RowPtr[i], f.RowPtr[i+1]
		diagPos[i] = -1
		for k := lo; k < hi; k++ {
			pos[f.ColInd[k]] = k
			if f.ColInd[k] == i {
				diagPos[i] = k
			}
		}
		if diagPos[i] == -1 {
			clearPos(pos, f, lo, hi)
			return nil, fmt.Errorf("ksp: ILU0: row %d: %w", i, sparse.ErrZeroDiagonal)
		}
		// Eliminate columns j < i present in row i.
		for k := lo; k < hi; k++ {
			j := f.ColInd[k]
			if j >= i {
				break // columns sorted
			}
			piv := f.Vals[diagPos[j]]
			if math.Abs(piv) < 1e-300 {
				clearPos(pos, f, lo, hi)
				return nil, fmt.Errorf("ksp: ILU0: zero pivot at row %d: %w", j, sparse.ErrSingular)
			}
			lij := f.Vals[k] / piv
			f.Vals[k] = lij
			// Subtract lij * U(j, j+1:) restricted to row i's pattern.
			for kk := diagPos[j] + 1; kk < f.RowPtr[j+1]; kk++ {
				if p := pos[f.ColInd[kk]]; p >= 0 {
					f.Vals[p] -= lij * f.Vals[kk]
				}
			}
		}
		if math.Abs(f.Vals[diagPos[i]]) < 1e-300 {
			clearPos(pos, f, lo, hi)
			return nil, fmt.Errorf("ksp: ILU0: zero pivot at row %d: %w", i, sparse.ErrSingular)
		}
		clearPos(pos, f, lo, hi)
	}
	// L is the strict lower part of each combined row, U the rest right
	// of the pivot; the sweep divides by a copy of the pivots. Every
	// pivot is stored and was checked nonzero above, so the split
	// rejects no row.
	tri, _ := par.SplitAtDiagonal(f.RowPtr, f.ColInd, f.Vals)
	return &ILU0{a: f, tri: tri}, nil
}

func clearPos(pos []int, f *sparse.CSR, lo, hi int) {
	for k := lo; k < hi; k++ {
		pos[f.ColInd[k]] = -1
	}
}

// Solve computes z = (LU)⁻¹ r. z and r may alias.
func (f *ILU0) Solve(z, r []float64) {
	if n := f.a.Rows; len(z) != n || len(r) != n {
		panic(fmt.Sprintf("ksp: ILU0.Solve: vectors must have length %d", n))
	}
	f.tri.Solve(f.pool, z, r)
}
