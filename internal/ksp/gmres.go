package ksp

import (
	"math"

	"repro/internal/pmat"
)

// solveGMRES is restarted GMRES(m) with modified Gram–Schmidt
// orthogonalization (pmat.Orthogonalize) and Givens-rotation least
// squares, in two variants that differ only in where the preconditioner
// sits and which basis updates x:
//
//   - flexible unset: left-preconditioned, w = M⁻¹·A·v_j, x += V·y, and
//     convergence is tested on the preconditioned residual norm, as in
//     PETSc's default GMRES convergence test;
//   - flexible set (FGMRES): right-preconditioned with the directions
//     z_j = M⁻¹·v_j stored, w = A·z_j, x += Z·y, so the preconditioner
//     may change between iterations (e.g. an inner iterative solve) and
//     the test sees the true residual norm.
func (k *KSP) solveGMRES(b, x []float64, flexible bool) error {
	n := len(x)
	m := k.restart

	ws := &k.ws
	ws.Krylov(n, m, flexible)
	v, g, cs, sn := ws.V, ws.G, ws.CS, ws.SN
	scratch := ws.Vecs(n, 2)
	w, t := scratch[0], scratch[1]
	update := v // the basis that carries y into x
	if flexible {
		update = ws.Z
	}

	rnorm0 := -1.0
	it := 0
	for { // outer restart loop
		// w = b − A·x, through M⁻¹ unless flexible.
		r := t
		if flexible {
			r = w
		}
		k.a.Apply(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		if !flexible {
			k.pc.Apply(w, r)
		}
		beta := k.red.Norm2(w)
		if rnorm0 < 0 {
			rnorm0 = beta
		}
		if k.testConvergence(it, beta, rnorm0) {
			return nil
		}
		if beta == 0 {
			k.reason = ConvergedATol
			return nil
		}
		inv := 1 / beta
		for i := range w {
			v[0][i] = w[i] * inv
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		j, stop := 0, false
		for ; j < m && !stop; j++ {
			it++
			if flexible {
				k.pc.Apply(ws.Z[j], v[j])
				k.a.Apply(w, ws.Z[j])
			} else {
				k.a.Apply(t, v[j])
				k.pc.Apply(w, t)
			}
			h := ws.Col(j)
			if hj1 := pmat.Orthogonalize(k.red, w, v[:j+1], h); hj1 > 1e-300 {
				inv := 1 / hj1
				for i := range w {
					v[j+1][i] = w[i] * inv
				}
			} else {
				// Breakdown: leave a deterministic zero direction rather
				// than whatever a previous restart or solve left behind.
				for i := range v[j+1] {
					v[j+1][i] = 0
				}
			}
			// Apply existing Givens rotations to the new column.
			for i := 0; i < j; i++ {
				hi := h[i]
				h[i] = cs[i]*hi + sn[i]*h[i+1]
				h[i+1] = -sn[i]*hi + cs[i]*h[i+1]
			}
			// New rotation to annihilate h[j+1].
			cs[j], sn[j] = givens(h[j], h[j+1])
			h[j] = cs[j]*h[j] + sn[j]*h[j+1]
			h[j+1] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]

			stop = k.testConvergence(it, math.Abs(g[j+1]), rnorm0)
		}
		ws.HessenbergUpdate(x, update, j)
		if stop {
			return nil
		}
	}
}

// givens returns the rotation (c, s) with c·a + s·b = r, −s·a + c·b = 0.
func givens(a, b float64) (c, s float64) {
	if b == 0 {
		return 1, 0
	}
	if math.Abs(b) > math.Abs(a) {
		tau := a / b
		s = 1 / math.Sqrt(1+tau*tau)
		c = s * tau
		return c, s
	}
	tau := b / a
	c = 1 / math.Sqrt(1+tau*tau)
	s = c * tau
	return c, s
}
