package pmat

import (
	"math"

	"repro/internal/comm"
	"repro/internal/par"
	"repro/internal/sparse"
)

// Reducer performs the global reductions of a Krylov loop. Its method
// set is the whole reduction inventory of the ksp and aztec packages
// and of the loops they share in this one (each method's pooled row in
// their exit tables fails on a direct comm.AllReduceFloat64 of a serial
// dot), so the numerics policy of docs/PERFORMANCE.md is audited in one
// place:
//
//   - a local contribution is the pool's fixed-slot fold when a pool is
//     attached (slot layout a function of the vector length alone, so
//     the bits do not depend on the worker count) and exactly
//     sparse.Dot / sparse.Norm2 without one;
//   - ranks fold in rank order inside comm;
//   - a fused method reduces independent same-iteration quantities in
//     one AllReduce, each of them bitwise identical to its unfused Dot
//     or Norm2 — only the number of collective rounds changes;
//   - AxpyDot and AxpyNorm2 fold the update y += α·x into the pass that
//     forms the local partial (each pool slot updates its block, then
//     reduces it): one read of y instead of two, bitwise sparse.Axpy
//     followed by Dot or Norm2, and one AllReduce as before.
//
// A Reducer belongs to one rank goroutine; its methods are collective.
type Reducer struct {
	c    *comm.Comm
	pool *par.Pool
	red  [3]float64 // staging for the fused reductions
}

// NewReducer returns a reducer over c with no pool attached.
func NewReducer(c *comm.Comm) *Reducer { return &Reducer{c: c} }

// SetPool attaches the intra-rank pool whose fixed-slot fold computes
// the local contributions (nil restores the serial sums).
func (r *Reducer) SetPool(p *par.Pool) { r.pool = p }

func (r *Reducer) dotPart(x, y []float64) float64 {
	if r.pool != nil {
		return r.pool.Dot(x, y)
	}
	return sparse.Dot(x, y)
}

// sqPart is the local contribution to a global 2-norm.
func (r *Reducer) sqPart(x []float64) float64 {
	var l float64
	if r.pool != nil {
		l = r.pool.Norm2(x)
	} else {
		l = sparse.Norm2(x)
	}
	return l * l
}

// Dot returns x·y.
func (r *Reducer) Dot(x, y []float64) float64 {
	return r.c.AllReduceFloat64(r.dotPart(x, y), comm.OpSum)
}

// Norm2 returns ‖x‖₂.
func (r *Reducer) Norm2(x []float64) float64 {
	return math.Sqrt(r.c.AllReduceFloat64(r.sqPart(x), comm.OpSum))
}

// AxpyDot computes y += alpha·x and returns the global y·z.
func (r *Reducer) AxpyDot(alpha float64, x, y, z []float64) float64 {
	var l float64
	if r.pool != nil {
		l = r.pool.AxpyDot(alpha, x, y, z)
	} else {
		l = sparse.AxpyDot(alpha, x, y, z)
	}
	return r.c.AllReduceFloat64(l, comm.OpSum)
}

// AxpyNorm2 computes y += alpha·x and returns the global ‖y‖₂.
func (r *Reducer) AxpyNorm2(alpha float64, x, y []float64) float64 {
	var l float64
	if r.pool != nil {
		l = r.pool.AxpyNorm2(alpha, x, y)
	} else {
		l = sparse.AxpyNorm2(alpha, x, y)
	}
	return math.Sqrt(r.c.AllReduceFloat64(l*l, comm.OpSum))
}

// NormDot returns (‖a‖₂, a·b) with one AllReduce.
func (r *Reducer) NormDot(a, b []float64) (norm, dot float64) {
	r.red[0], r.red[1] = r.sqPart(a), r.dotPart(a, b)
	r.c.AllReduceFloat64sInPlace(r.red[:2], comm.OpSum)
	return math.Sqrt(r.red[0]), r.red[1]
}

// Dot2 returns (a1·b1, a2·b2) with one AllReduce.
func (r *Reducer) Dot2(a1, b1, a2, b2 []float64) (float64, float64) {
	r.red[0], r.red[1] = r.dotPart(a1, b1), r.dotPart(a2, b2)
	r.c.AllReduceFloat64sInPlace(r.red[:2], comm.OpSum)
	return r.red[0], r.red[1]
}

// Norm2x2 returns (‖a‖₂, ‖b‖₂) with one AllReduce.
func (r *Reducer) Norm2x2(a, b []float64) (float64, float64) {
	r.red[0], r.red[1] = r.sqPart(a), r.sqPart(b)
	r.c.AllReduceFloat64sInPlace(r.red[:2], comm.OpSum)
	return math.Sqrt(r.red[0]), math.Sqrt(r.red[1])
}

// Norm2x2Dot returns (‖a‖₂, ‖b‖₂, c·d) with one AllReduce.
func (r *Reducer) Norm2x2Dot(a, b, c, d []float64) (float64, float64, float64) {
	r.red[0], r.red[1], r.red[2] = r.sqPart(a), r.sqPart(b), r.dotPart(c, d)
	r.c.AllReduceFloat64sInPlace(r.red[:], comm.OpSum)
	return math.Sqrt(r.red[0]), math.Sqrt(r.red[1]), r.red[2]
}
