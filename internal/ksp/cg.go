package ksp

import "repro/internal/sparse"

// solveCG is preconditioned conjugate gradients (for SPD operators with an
// SPD preconditioner). Convergence is tested on the true residual norm.
// The residual norm for the convergence test is fused with the r·z dot
// into one AllReduce: the preconditioner is applied before the test, which
// costs one local PC apply on the final iteration but removes a collective
// round per iteration without changing any reduction's value.
func (k *KSP) solveCG(b, x []float64) error {
	n := len(x)
	w := k.ws.Vecs(n, 4)
	r, z, p, q := w[0], w[1], w[2], w[3]

	// r = b − A·x
	k.a.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	k.pc.Apply(z, r)
	rnorm0, rz := k.red.NormDot(r, z)
	if k.testConvergence(0, rnorm0, rnorm0) {
		return nil
	}
	copy(p, z)

	for it := 1; ; it++ {
		k.a.Apply(q, p)
		pq := k.red.Dot(p, q)
		if pq <= 0 {
			// Operator or preconditioner is not positive definite for
			// this Krylov space.
			k.reason = DivergedIndefinitePC
			k.its = it
			return nil
		}
		alpha := rz / pq
		sparse.Axpy(alpha, p, x)
		sparse.Axpy(-alpha, q, r)
		k.pc.Apply(z, r)
		rnorm, rzNew := k.red.NormDot(r, z)
		if k.testConvergence(it, rnorm, rnorm0) {
			return nil
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
}

// solveRichardson is damped preconditioned Richardson iteration:
// x ← x + s·M⁻¹(b − A·x).
func (k *KSP) solveRichardson(b, x []float64) error {
	n := len(x)
	w := k.ws.Vecs(n, 2)
	r, z := w[0], w[1]
	k.a.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rnorm0 := k.red.Norm2(r)
	if k.testConvergence(0, rnorm0, rnorm0) {
		return nil
	}
	for it := 1; ; it++ {
		k.pc.Apply(z, r)
		sparse.Axpy(k.damping, z, x)
		k.a.Apply(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		if k.testConvergence(it, k.red.Norm2(r), rnorm0) {
			return nil
		}
	}
}
