package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sparse"
)

// directTol is the tolerance stated for the direct (superlu-role)
// back-end, which takes none itself: a backward-stable LU of these
// operators leaves a relative residual far below it.
const directTol = 1e-10

// residualSlack is how far the harness-recomputed true relative
// residual may exceed the stated tolerance before the solve fails.
const residualSlack = 10

// checker does the failure accounting of one workload. An operation
// fails if it errors, does not converge, leaves a true relative
// residual above residualSlack × the stated tolerance, or if its
// iteration count or solution bits differ from the same operation in
// the warm-up epoch (every epoch runs the same schedule, and the
// program's contract is bitwise determinism). A failed operation
// contributes no timing sample.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	messages  []string // first few failures, for the report

	// pins holds, per operation key, the iteration count and solution
	// digest first seen; iterTotal sums the pinned iteration counts.
	pins      map[string]pin
	iterTotal int
	scratch   sync.Pool
}

type pin struct {
	iters  int // unknownIters until a reply that reports its own count
	digest uint64
}

const unknownIters = -1

func newChecker() *checker {
	return &checker{pins: make(map[string]pin)}
}

// outcome is what a solve reported about itself.
type outcome struct {
	iters     int
	converged bool
	err       error
	// noIterPin skips the iteration pin: a request the service merged
	// with another reports the merged run's count.
	noIterPin bool
}

// check verifies one solve of a·x = b and returns whether it passed.
// key names the operation within an epoch ("warm/17"); the same key in
// another epoch must reproduce iterations and solution bits.
func (c *checker) check(key string, a *sparse.CSR, b, x []float64, tol float64, o outcome) bool {
	fail := ""
	switch {
	case o.err != nil:
		fail = "error: " + o.err.Error()
	case !o.converged:
		fail = "did not converge"
	default:
		if rel := trueResidual(a, b, x, &c.scratch); math.IsNaN(rel) || rel > residualSlack*tol {
			fail = fmt.Sprintf("true relative residual %.3g exceeds %d × tol %.3g", rel, residualSlack, tol)
		}
	}
	d := digest(x)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if fail == "" {
		p, seen := c.pins[key]
		if !seen {
			p = pin{iters: unknownIters, digest: d}
		}
		switch {
		case p.digest != d:
			fail = fmt.Sprintf("solution digest %016x, pinned %016x", d, p.digest)
		case o.noIterPin:
		case p.iters == unknownIters:
			p.iters = o.iters
			c.iterTotal += o.iters
		case p.iters != o.iters:
			fail = fmt.Sprintf("iterations %d, pinned %d", o.iters, p.iters)
		}
		c.pins[key] = p
	}
	if fail == "" {
		return true
	}
	c.failed++
	if len(c.messages) < 8 {
		c.messages = append(c.messages, key+": "+fail)
	}
	return false
}

// fail records an operation that produced no solution to verify.
func (c *checker) fail(key string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failed++
	if len(c.messages) < 8 {
		c.messages = append(c.messages, key+": "+err.Error())
	}
}

// trueResidual recomputes ‖b−Ax‖₂/‖b‖₂ from the harness's own copy of
// the operator — the sweep harness's accuracy ground truth, independent
// of the norm the back-end iterated on.
func trueResidual(a *sparse.CSR, b, x []float64, scratch *sync.Pool) float64 {
	var r []float64
	if p, ok := scratch.Get().(*[]float64); ok && cap(*p) >= len(b) {
		r = (*p)[:len(b)]
	} else {
		r = make([]float64, len(b))
	}
	defer scratch.Put(&r)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	nb := sparse.Norm2(b)
	if nb == 0 {
		return sparse.Norm2(r)
	}
	return sparse.Norm2(r) / nb
}

// digest folds the exact bits of x into 64 bits (FNV-1a over words).
func digest(x []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range x {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}
