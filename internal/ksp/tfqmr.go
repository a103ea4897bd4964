package ksp

import (
	"math"

	"repro/internal/sparse"
)

// solveTFQMR is Freund's transpose-free QMR in the formulation of Kelley
// ("Iterative Methods for Linear and Nonlinear Equations", alg. 7.4.1),
// applied to the left-preconditioned system M⁻¹A·x = M⁻¹b. The residual
// estimate τ·√(m+1) bounds the preconditioned residual norm. The
// recurrence's reductions (σ, θ, ρ) each depend on the vector updates
// between them, so only the workspace is hoisted — no reduction fusion.
func (k *KSP) solveTFQMR(b, x []float64) error {
	n := len(x)
	ws := k.ws.Vecs(n, 10)
	scratch, r, r0, w := ws[0], ws[1], ws[2], ws[3]
	y1, y2, d, v := ws[4], ws[5], ws[6], ws[7]
	u1, u2 := ws[8], ws[9]
	applyPA := func(dst, src, scratch []float64) {
		k.a.Apply(scratch, src)
		k.pc.Apply(dst, scratch)
	}

	// r = M⁻¹ (b − A x)
	k.a.Apply(scratch, x)
	for i := range scratch {
		scratch[i] = b[i] - scratch[i]
	}
	k.pc.Apply(r, scratch)

	copy(r0, r)
	copy(w, r)
	copy(y1, r)
	// d accumulates from zero; the workspace is reused across solves, so
	// clear it explicitly (everything else is fully written before read).
	for i := range d {
		d[i] = 0
	}
	applyPA(v, y1, scratch)
	copy(u1, v)

	tau := k.red.Norm2(r)
	rnorm0 := tau
	if k.testConvergence(0, tau, rnorm0) {
		return nil
	}
	theta, eta := 0.0, 0.0
	rho := tau * tau

	for it := 1; ; it++ {
		sigma := k.red.Dot(r0, v)
		if sigma == 0 {
			k.reason = DivergedBreakdown
			k.its = it
			return nil
		}
		alpha := rho / sigma
		for j := 1; j <= 2; j++ {
			var y, u []float64
			if j == 1 {
				y, u = y1, u1
			} else {
				for i := range y2 {
					y2[i] = y1[i] - alpha*v[i]
				}
				applyPA(u2, y2, scratch)
				y, u = y2, u2
			}
			m := float64(2*it - 2 + j)
			sparse.Axpy(-alpha, u, w)
			thetaOld, etaOld := theta, eta
			for i := range d {
				d[i] = y[i] + (thetaOld*thetaOld*etaOld/alpha)*d[i]
			}
			theta = k.red.Norm2(w) / tau
			c := 1 / math.Sqrt(1+theta*theta)
			tau = tau * theta * c
			eta = c * c * alpha
			sparse.Axpy(eta, d, x)
			est := tau * math.Sqrt(m+1)
			if k.testConvergence(it, est, rnorm0) {
				return nil
			}
		}
		if rho == 0 {
			k.reason = DivergedBreakdown
			k.its = it
			return nil
		}
		rhoNew := k.red.Dot(r0, w)
		beta := rhoNew / rho
		rho = rhoNew
		for i := range y1 {
			y1[i] = w[i] + beta*y2[i]
		}
		applyPA(u1, y1, scratch)
		for i := range v {
			v[i] = u1[i] + beta*(u2[i]+beta*v[i])
		}
	}
}
