package par

import "math"

// reduceBlock is the element count per reduction slot. The slot layout
// of a length-n reduction is a function of n alone, so the fold tree is
// identical for every worker count — that, plus folding the slots in
// ascending order on the caller, is what makes pooled reductions
// bitwise-deterministic. For n <= reduceBlock there is a single slot
// and the result is bit-identical to the plain serial loop, which keeps
// a 1-worker pooled solve exactly on today's serial arithmetic for
// every local block the test problems use.
const reduceBlock = 2048

// ReduceSlots returns the number of fixed-size partial slots a
// length-n reduction uses.
func ReduceSlots(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + reduceBlock - 1) / reduceBlock
}

// slotBounds returns slot s's block [start, end) of a length-n vector.
func slotBounds(s, n int) (start, end int) {
	start = s * reduceBlock
	return start, min(start+reduceBlock, n)
}

// dotTask computes one partial dot product a·b per slot cell; with x
// set, each block first takes a += alpha·x in the same pass (AxpyDot).
type dotTask struct {
	alpha   float64
	x, a, b []float64
	out     []float64
}

func (t *dotTask) Range(_, lo, hi int) {
	for s := lo; s < hi; s++ {
		start, end := slotBounds(s, len(t.a))
		t.out[s] = serialDot(t.alpha, t.x, t.a[start:end], t.b[start:end], start)
	}
}

// serialDot is a·b, or with x set AxpyDot's a += alpha·x followed by
// a·b over one block; x is indexed from off, the block's start.
func serialDot(alpha float64, x, a, b []float64, off int) float64 {
	if x == nil {
		return plainDot(a, b)
	}
	return plainAxpyDot(alpha, x[off:off+len(a)], a, b)
}

// Dot returns a·b with the fixed-slot layout: each slot's partial is a
// plain left-to-right sum over its block, and the slots fold in
// ascending order. A nil pool (or a single-slot vector) degenerates to
// the serial sum, bit-identical to sparse.Dot.
func (p *Pool) Dot(a, b []float64) float64 { return p.dotSlots(0, nil, a, b) }

// AxpyDot computes y += alpha·x and returns the updated y·z in one
// dispatch: each slot updates its block and then forms that block's
// partial, so the result is bitwise sparse.Axpy followed by Dot, for
// every worker count. A nil pool is bit-identical to sparse.AxpyDot.
func (p *Pool) AxpyDot(alpha float64, x, y, z []float64) float64 {
	return p.dotSlots(alpha, x[:len(y)], y, z)
}

func (p *Pool) dotSlots(alpha float64, x, a, b []float64) float64 {
	if p == nil {
		return serialDot(alpha, x, a, b, 0)
	}
	s := ReduceSlots(len(a))
	if s == 0 {
		return 0
	}
	if s == 1 {
		p.inline++
		return serialDot(alpha, x, a, b, 0)
	}
	parts := p.reserve(s)
	t := &p.dot
	t.alpha, t.x, t.a, t.b, t.out = alpha, x, a, b, parts
	p.Run(s, t)
	t.x, t.a, t.b, t.out = nil, nil, nil, nil
	sum := parts[0]
	for _, v := range parts[1:s] {
		sum += v
	}
	return sum
}

// plainDot mirrors sparse.Dot's exact accumulation order (par cannot
// import sparse: sparse's pooled SpMV imports par).
func plainDot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// plainAxpyDot mirrors sparse.AxpyDot: y += alpha·x, then y·z, per
// element in one pass.
func plainAxpyDot(alpha float64, x, y, z []float64) float64 {
	y, z = y[:len(x)], z[:len(x)]
	s := 0.0
	for i, v := range x {
		yi := y[i] + alpha*v
		y[i] = yi
		s += yi * z[i]
	}
	return s
}

// normTask computes one (scale, ssq) pair per slot, interleaved in out;
// with x set, each block first takes y += alpha·x in the same pass
// (AxpyNorm2).
type normTask struct {
	alpha float64
	x, y  []float64
	out   []float64
}

func (t *normTask) Range(_, lo, hi int) {
	for s := lo; s < hi; s++ {
		start, end := slotBounds(s, len(t.y))
		t.out[2*s], t.out[2*s+1] = serialSSQ(t.alpha, t.x, t.y[start:end], start)
	}
}

// serialSSQ is scaledSSQ(y), or with x set AxpyNorm2's y += alpha·x
// followed by scaledSSQ(y) over one block; x is indexed from off.
func serialSSQ(alpha float64, x, y []float64, off int) (scale, ssq float64) {
	if x == nil {
		return scaledSSQ(y)
	}
	return axpySSQ(alpha, x[off:off+len(y)], y)
}

// Norm2 returns the overflow-guarded Euclidean norm with the fixed-slot
// layout: each slot runs the serial scale/ssq recurrence over its
// block, and the per-slot pairs combine in ascending slot order. A nil
// pool (or a single-slot vector) is bit-identical to sparse.Norm2.
func (p *Pool) Norm2(x []float64) float64 { return p.normSlots(0, nil, x) }

// AxpyNorm2 computes y += alpha·x and returns the updated ‖y‖₂ in one
// dispatch, each slot updating its block before its scale/ssq pair:
// bitwise sparse.Axpy followed by Norm2, for every worker count. A nil
// pool is bit-identical to sparse.AxpyNorm2.
func (p *Pool) AxpyNorm2(alpha float64, x, y []float64) float64 {
	return p.normSlots(alpha, x[:len(y)], y)
}

func (p *Pool) normSlots(alpha float64, x, y []float64) float64 {
	if p == nil {
		scale, ssq := serialSSQ(alpha, x, y, 0)
		return scale * math.Sqrt(ssq)
	}
	s := ReduceSlots(len(y))
	if s == 0 {
		return 0
	}
	if s == 1 {
		p.inline++
		scale, ssq := serialSSQ(alpha, x, y, 0)
		return scale * math.Sqrt(ssq)
	}
	parts := p.reserve(2 * s)
	t := &p.nrm
	t.alpha, t.x, t.y, t.out = alpha, x, y, parts
	p.Run(s, t)
	t.x, t.y, t.out = nil, nil, nil
	scale, ssq := parts[0], parts[1]
	for k := 1; k < s; k++ {
		s2, q2 := parts[2*k], parts[2*k+1]
		if s2 == 0 {
			continue
		}
		if scale < s2 {
			r := scale / s2
			ssq = q2 + ssq*r*r
			scale = s2
		} else {
			r := s2 / scale
			ssq += q2 * r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// scaledSSQ is the body of sparse.Norm2's recurrence: a running scale
// and a scaled sum of squares, skipping exact zeros.
func scaledSSQ(x []float64) (scale, ssq float64) {
	scale, ssq = 0.0, 1.0
	for _, v := range x {
		scale, ssq = ssqAdd(scale, ssq, v)
	}
	return scale, ssq
}

// axpySSQ mirrors sparse.AxpyNorm2's body: y += alpha·x and the
// scale/ssq recurrence over the updated entries, in one pass.
func axpySSQ(alpha float64, x, y []float64) (scale, ssq float64) {
	y = y[:len(x)]
	scale, ssq = 0.0, 1.0
	for i, v := range x {
		yi := y[i] + alpha*v
		y[i] = yi
		scale, ssq = ssqAdd(scale, ssq, yi)
	}
	return scale, ssq
}

// ssqAdd mirrors sparse's step of the recurrence: v folds into the
// running scale and scaled sum of squares, and an exact zero is skipped.
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
