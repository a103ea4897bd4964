// Package sparse provides the serial sparse-matrix substrate used by every
// solver package in this repository: CSR, the format every solver works
// on, with its kernels (matrix–vector products, norms, products of
// matrices); the formats a LISI SetupMatrix call can hand in and their
// conversion to CSR (COO triplets, which FEM assembly also goes through,
// and VBR; MSR arrays are unpacked by the adapter itself); the SELL-C-σ
// and order-exact MSR kernels ParSpMV can bind; simple generators; and
// the Matrix Market and plain-text vector exchange formats.
//
// The formats deliberately mirror the classic SPARSKIT definitions the
// CCA-LISI paper refers to, because the LISI SetupMatrix adapter's job is
// precisely converting between an application's chosen format and a solver
// package's internal one.
package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is wrapped by every set-up that meets a matrix it cannot
// invert: a zero pivot, an empty row or column, a zero row sum, a zero
// or absent diagonal entry. It is a property of the matrix, so callers
// classify it as singular whatever the method.
var ErrSingular = errors.New("singular matrix")

// ErrZeroDiagonal is wrapped by every preconditioner set-up that
// divides by a diagonal entry which is zero or absent.
var ErrZeroDiagonal = fmt.Errorf("zero diagonal: %w", ErrSingular)

// Format names the storage scheme a ParSpMV kernel is bound to (the
// sparse.format telemetry label).
type Format int

// Bindable formats.
const (
	FmtCSR  Format = iota // compressed sparse row
	FmtMSR                // modified sparse row, order-exact kernel
	FmtSELL               // SELL-C-σ sliced ELLPACK
)

// String returns the format's conventional name.
func (f Format) String() string {
	switch f {
	case FmtCSR:
		return "CSR"
	case FmtMSR:
		return "MSR"
	case FmtSELL:
		return "SELL"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// checkDims panics if a kernel is called with mis-sized vectors; this is a
// programming error, not a data error.
func checkDims(op string, want, got int) {
	if want != got {
		panic(fmt.Sprintf("sparse: %s: vector length %d, want %d", op, got, want))
	}
}

// Dot returns the dot product of two equal-length dense vectors.
func Dot(a, b []float64) float64 {
	checkDims("Dot", len(a), len(b))
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of a dense vector, guarding against
// overflow for large entries.
func Norm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		scale, ssq = ssqAdd(scale, ssq, v)
	}
	return scale * math.Sqrt(ssq)
}

// ssqAdd folds v into Norm2's running scale and scaled sum of squares,
// skipping exact zeros.
func ssqAdd(scale, ssq, v float64) (float64, float64) {
	if v == 0 {
		return scale, ssq
	}
	a := math.Abs(v)
	if scale < a {
		r := scale / a
		return a, 1 + ssq*r*r
	}
	r := a / scale
	return scale, ssq + r*r
}

// NormInf returns the max-norm of a dense vector.
func NormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	checkDims("Axpy", len(y), len(x))
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// AxpyDot computes y += alpha*x and returns the updated y·z in the same
// pass: bit for bit Axpy(alpha, x, y) followed by Dot(y, z), with y
// read once.
func AxpyDot(alpha float64, x, y, z []float64) float64 {
	checkDims("AxpyDot", len(y), len(x))
	checkDims("AxpyDot", len(z), len(x))
	y, z = y[:len(x)], z[:len(x)]
	s := 0.0
	for i, v := range x {
		yi := y[i] + alpha*v
		y[i] = yi
		s += yi * z[i]
	}
	return s
}

// AxpyNorm2 computes y += alpha*x and returns the updated ‖y‖₂ in the
// same pass: bit for bit Axpy(alpha, x, y) followed by Norm2(y).
func AxpyNorm2(alpha float64, x, y []float64) float64 {
	checkDims("AxpyNorm2", len(y), len(x))
	y = y[:len(x)]
	scale, ssq := 0.0, 1.0
	for i, v := range x {
		yi := y[i] + alpha*v
		y[i] = yi
		scale, ssq = ssqAdd(scale, ssq, yi)
	}
	return scale * math.Sqrt(ssq)
}

// Axpy2 computes y += a*x and v += b*u in one pass: bit for bit
// Axpy(a, x, y) followed by Axpy(b, u, v). y and v must not alias.
func Axpy2(a float64, x, y []float64, b float64, u, v []float64) {
	checkDims("Axpy2", len(y), len(x))
	checkDims("Axpy2", len(u), len(x))
	checkDims("Axpy2", len(v), len(x))
	y, u, v = y[:len(x)], u[:len(x)], v[:len(x)]
	for i, xi := range x {
		y[i] += a * xi
		v[i] += b * u[i]
	}
}

// Scale multiplies every element of x by alpha.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}
