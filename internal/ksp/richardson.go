package ksp

import "repro/internal/sparse"

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
