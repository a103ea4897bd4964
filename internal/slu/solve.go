package slu

import (
	"fmt"

	"repro/internal/sparse"
)

// Solve computes x = A⁻¹·b for the factored matrix. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto computes x = A⁻¹·b into the caller-provided x (which must
// have length n and may not alias b). Repeated calls do not allocate.
func (f *LU) SolveInto(x, b []float64) error {
	if len(b) != f.n {
		return fmt.Errorf("slu: Solve: rhs has length %d, want %d", len(b), f.n)
	}
	if len(x) != f.n {
		return fmt.Errorf("slu: Solve: solution has length %d, want %d", len(x), f.n)
	}
	if f.workC == nil {
		f.workC = make([]float64, f.n)
	}
	// c = P · Dr · b  (factor coordinates)
	c := f.workC
	for r := 0; r < f.n; r++ {
		v := b[r]
		if f.dr != nil {
			v *= f.dr[r]
		}
		c[f.rowPerm[r]] = v
	}
	if ls := f.ls; ls != nil && ls.pool.Parallel() {
		ls.tri.Solve(ls.pool, c, c)
	} else {
		f.lSolve(c)
		f.uSolve(c)
	}
	// x = Dc · Q · z
	for k := 0; k < f.n; k++ {
		j := f.colPerm[k]
		v := c[k]
		if f.dc != nil {
			v *= f.dc[j]
		}
		x[j] = v
	}
	return nil
}

// lSolve solves L·w = c in place (column-oriented, unit diagonal first).
func (f *LU) lSolve(c []float64) {
	for k := 0; k < f.n; k++ {
		xk := c[k]
		for p := f.lPtr[k] + 1; p < f.lPtr[k+1]; p++ {
			c[f.lRows[p]] -= f.lVals[p] * xk
		}
	}
}

// uSolve solves U·z = c in place (column-oriented, diagonal last).
func (f *LU) uSolve(c []float64) {
	for k := f.n - 1; k >= 0; k-- {
		dp := f.uPtr[k+1] - 1 // diagonal entry position
		zk := c[k] / f.uVals[dp]
		c[k] = zk
		for p := f.uPtr[k]; p < dp; p++ {
			c[f.uRows[p]] -= f.uVals[p] * zk
		}
	}
}

// Refine performs steps of iterative refinement of x for A·x = b using
// the original (unscaled) matrix, returning the final residual ∞-norm.
func (f *LU) Refine(a *sparse.CSR, b, x []float64, steps int) (float64, error) {
	if a.Rows != f.n || a.Cols != f.n {
		return 0, fmt.Errorf("slu: Refine: matrix is %dx%d, factorization is order %d", a.Rows, a.Cols, f.n)
	}
	if f.workR == nil {
		f.workR = make([]float64, f.n)
		f.workDx = make([]float64, f.n)
	}
	r, dx := f.workR, f.workDx
	for s := 0; s < steps; s++ {
		a.MulVec(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		if err := f.SolveInto(dx, r); err != nil {
			return 0, err
		}
		sparse.Axpy(1, dx, x)
	}
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return sparse.NormInf(r), nil
}

// FillRatio returns nnz(L+U) / nnz(A-as-factored) — a measure of fill-in.
func (f *LU) FillRatio(originalNNZ int) float64 {
	if originalNNZ == 0 {
		return 0
	}
	return float64(f.NNZ()) / float64(originalNNZ)
}
