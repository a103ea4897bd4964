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

// dotTask computes one partial dot product per slot cell.
type dotTask struct {
	a, b []float64
	out  []float64
}

func (t *dotTask) Range(_, lo, hi int) {
	for s := lo; s < hi; s++ {
		start := s * reduceBlock
		end := start + reduceBlock
		if end > len(t.a) {
			end = len(t.a)
		}
		t.out[s] = plainDot(t.a[start:end], t.b[start:end])
	}
}

// Dot returns a·b with the fixed-slot layout: each slot's partial is a
// plain left-to-right sum over its block, and the slots fold in
// ascending order. A nil pool (or a single-slot vector) degenerates to
// the serial sum, bit-identical to sparse.Dot.
func (p *Pool) Dot(a, b []float64) float64 {
	if p == nil {
		return plainDot(a, b)
	}
	s := ReduceSlots(len(a))
	if s == 0 {
		return 0
	}
	if s == 1 {
		p.inline++
		return plainDot(a, b)
	}
	parts := p.reserve(s)
	t := &p.dot
	t.a, t.b, t.out = a, b, parts
	p.Run(s, t)
	t.a, t.b, t.out = nil, nil, nil
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

// normTask computes one (scale, ssq) pair per slot, interleaved in out.
type normTask struct {
	x   []float64
	out []float64
}

func (t *normTask) Range(_, lo, hi int) {
	for s := lo; s < hi; s++ {
		start := s * reduceBlock
		end := start + reduceBlock
		if end > len(t.x) {
			end = len(t.x)
		}
		scale, ssq := scaledSSQ(t.x[start:end])
		t.out[2*s], t.out[2*s+1] = scale, ssq
	}
}

// Norm2 returns the overflow-guarded Euclidean norm with the fixed-slot
// layout: each slot runs the serial scale/ssq recurrence over its
// block, and the per-slot pairs combine in ascending slot order. A nil
// pool (or a single-slot vector) is bit-identical to sparse.Norm2.
func (p *Pool) Norm2(x []float64) float64 {
	if p == nil {
		return plainNorm2(x)
	}
	s := ReduceSlots(len(x))
	if s == 0 {
		return 0
	}
	if s == 1 {
		p.inline++
		return plainNorm2(x)
	}
	parts := p.reserve(2 * s)
	t := &p.nrm
	t.x, t.out = x, parts
	p.Run(s, t)
	t.x, t.out = nil, nil
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
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale, ssq
}

func plainNorm2(x []float64) float64 {
	scale, ssq := scaledSSQ(x)
	return scale * math.Sqrt(ssq)
}
