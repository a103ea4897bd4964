package slu

import (
	"fmt"
	"math"

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
	f.lSolve(c)
	f.uSolve(c)
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

// SolveTranspose computes x = A⁻ᵀ·b.
func (f *LU) SolveTranspose(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("slu: SolveTranspose: rhs has length %d, want %d", len(b), f.n)
	}
	// w[m] = dc[q[m]] · b[q[m]]
	w := make([]float64, f.n)
	for m := 0; m < f.n; m++ {
		j := f.colPerm[m]
		v := b[j]
		if f.dc != nil {
			v *= f.dc[j]
		}
		w[m] = v
	}
	f.utSolve(w)
	f.ltSolve(w)
	// x[r] = dr[r] · v[pinv[r]]
	x := make([]float64, f.n)
	for r := 0; r < f.n; r++ {
		v := w[f.rowPerm[r]]
		if f.dr != nil {
			v *= f.dr[r]
		}
		x[r] = v
	}
	return x, nil
}

// lSolve solves L·w = c in place (column-oriented, unit diagonal first).
func (f *LU) lSolve(c []float64) {
	if f.ls != nil && f.ls.pool.Parallel() {
		f.ls.lSolve(c)
		return
	}
	for k := 0; k < f.n; k++ {
		xk := c[k]
		if xk == 0 {
			continue
		}
		for p := f.lPtr[k] + 1; p < f.lPtr[k+1]; p++ {
			c[f.lRows[p]] -= f.lVals[p] * xk
		}
	}
}

// uSolve solves U·z = c in place (column-oriented, diagonal last).
func (f *LU) uSolve(c []float64) {
	if f.ls != nil && f.ls.pool.Parallel() {
		f.ls.uSolve(c)
		return
	}
	for k := f.n - 1; k >= 0; k-- {
		dp := f.uPtr[k+1] - 1 // diagonal entry position
		zk := c[k] / f.uVals[dp]
		c[k] = zk
		if zk == 0 {
			continue
		}
		for p := f.uPtr[k]; p < dp; p++ {
			c[f.uRows[p]] -= f.uVals[p] * zk
		}
	}
}

// utSolve solves Uᵀ·t = w in place (Uᵀ is lower triangular).
func (f *LU) utSolve(w []float64) {
	for m := 0; m < f.n; m++ {
		dp := f.uPtr[m+1] - 1
		s := w[m]
		for p := f.uPtr[m]; p < dp; p++ {
			s -= f.uVals[p] * w[f.uRows[p]]
		}
		w[m] = s / f.uVals[dp]
	}
}

// ltSolve solves Lᵀ·v = t in place (Lᵀ is upper triangular, unit diag).
func (f *LU) ltSolve(t []float64) {
	for k := f.n - 1; k >= 0; k-- {
		s := t[k]
		for p := f.lPtr[k] + 1; p < f.lPtr[k+1]; p++ {
			s -= f.lVals[p] * t[f.lRows[p]]
		}
		t[k] = s
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

// RCond estimates the reciprocal 1-norm condition number of the scaled,
// factored matrix using Hager's method (the estimator behind LAPACK's
// xGECON and SuperLU's rcond output).
func (f *LU) RCond() float64 {
	n := f.n
	// Estimate ‖A'⁻¹‖₁ with solves in factor coordinates.
	solve := func(v []float64) {
		f.lSolve(v)
		f.uSolve(v)
	}
	solveT := func(v []float64) {
		f.utSolve(v)
		f.ltSolve(v)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	est := 0.0
	for iter := 0; iter < 5; iter++ {
		y := make([]float64, n)
		copy(y, x)
		solve(y)
		norm1 := 0.0
		for _, v := range y {
			norm1 += math.Abs(v)
		}
		est = norm1
		xi := make([]float64, n)
		for i, v := range y {
			if v >= 0 {
				xi[i] = 1
			} else {
				xi[i] = -1
			}
		}
		solveT(xi)
		jmax, zmax := 0, 0.0
		for i, v := range xi {
			if a := math.Abs(v); a > zmax {
				zmax, jmax = a, i
			}
		}
		zx := sparse.Dot(xi, x)
		if zmax <= zx {
			break
		}
		for i := range x {
			x[i] = 0
		}
		x[jmax] = 1
	}
	if est == 0 || f.anorm == 0 {
		return 0
	}
	return 1 / (f.anorm * est)
}

// FillRatio returns nnz(L+U) / nnz(A-as-factored) — a measure of fill-in.
func (f *LU) FillRatio(originalNNZ int) float64 {
	if originalNNZ == 0 {
		return 0
	}
	return float64(f.NNZ()) / float64(originalNNZ)
}
