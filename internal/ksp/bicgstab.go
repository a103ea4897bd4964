package ksp

import (
	"math"

	"repro/internal/sparse"
)

// solveBiCGStab is the stabilized bi-conjugate gradient method of van der
// Vorst with right-side application of the preconditioner inside the
// update directions (the PETSc bcgs formulation). Convergence is tested
// on the true residual norm. Independent same-iteration reductions are
// fused: (t·t, t·s) share one AllReduce, and the tail residual norm is
// fused with the next iteration's ρ = r̂·r — each fused value is bitwise
// identical to its unfused counterpart, only the collective count drops
// from 5-6 to 3 per iteration.
func (k *KSP) solveBiCGStab(b, x []float64) error {
	n := len(x)
	w := k.ws.Vecs(n, 8)
	r, rhat, p, v := w[0], w[1], w[2], w[3]
	s, t, phat, shat := w[4], w[5], w[6], w[7]

	k.a.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	copy(rhat, r)
	rnorm0, rhoNext := k.red.NormDot(r, rhat)
	if k.testConvergence(0, rnorm0, rnorm0) {
		return nil
	}

	rho, alpha, omega := 1.0, 1.0, 1.0
	for it := 1; ; it++ {
		rhoNew := rhoNext
		if rhoNew == 0 {
			k.reason = DivergedBreakdown
			k.its = it
			return nil
		}
		if it == 1 {
			copy(p, r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rhoNew
		k.pc.Apply(phat, p)
		k.a.Apply(v, phat)
		rv := k.red.Dot(rhat, v)
		if rv == 0 {
			k.reason = DivergedBreakdown
			k.its = it
			return nil
		}
		alpha = rho / rv
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if snorm := k.red.Norm2(s); snorm <= k.atol || snorm <= k.rtol*rnorm0 {
			// Early half-step convergence.
			sparse.Axpy(alpha, phat, x)
			k.testConvergence(it, snorm, rnorm0)
			return nil
		}
		k.pc.Apply(shat, s)
		k.a.Apply(t, shat)
		tt, ts := k.red.Dot2(t, t, t, s)
		if tt == 0 {
			k.reason = DivergedBreakdown
			k.its = it
			return nil
		}
		omega = ts / tt
		if math.Abs(omega) < 1e-300 {
			k.reason = DivergedBreakdown
			k.its = it
			return nil
		}
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		var rnorm float64
		rnorm, rhoNext = k.red.NormDot(r, rhat)
		if k.testConvergence(it, rnorm, rnorm0) {
			return nil
		}
	}
}
