package ksp

import (
	"math"

	"repro/internal/sparse"
)

// solveChebyshev is the Chebyshev semi-iteration on the preconditioned
// operator M⁻¹A, using eigenvalue bounds [emin, emax]: emax is estimated
// by a short power iteration and emin = emax/30, PETSc's default
// heuristic. Chebyshev needs no inner products besides the convergence
// test, which is why multigrid smoothing and communication-avoiding
// settings favor it.
func (k *KSP) solveChebyshev(b, x []float64) error {
	n := len(x)
	w := k.ws.Vecs(n, 4)
	r, z, p, q := w[0], w[1], w[2], w[3]

	emax, err := k.estimateMaxEig()
	if err != nil {
		return err
	}
	emax *= 1.1
	emin := emax / 30
	theta := (emax + emin) / 2
	delta := (emax - emin) / 2

	k.a.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rnorm0 := k.red.Norm2(r)
	if k.testConvergence(0, rnorm0, rnorm0) {
		return nil
	}

	var alpha, beta float64
	for it := 1; ; it++ {
		k.pc.Apply(z, r)
		switch it {
		case 1:
			alpha = 1 / theta
			copy(p, z)
		default:
			if it == 2 {
				beta = 0.5 * (delta * alpha) * (delta * alpha)
			} else {
				beta = (delta * alpha / 2) * (delta * alpha / 2)
			}
			alpha = 1 / (theta - beta/alpha)
			for i := range p {
				p[i] = z[i] + beta*p[i]
			}
		}
		sparse.Axpy(alpha, p, x)
		k.a.Apply(q, p)
		sparse.Axpy(-alpha, q, r)
		if k.testConvergence(it, k.red.Norm2(r), rnorm0) {
			return nil
		}
	}
}

// estimateMaxEig runs a few power iterations on M⁻¹A. The start vector
// must overlap the dominant eigenvector, which for preconditioned
// elliptic operators is high-frequency: a constant start is nearly
// orthogonal to it and underestimates λmax badly enough that the
// Chebyshev interval misses real eigenvalues and the iteration
// diverges. A hashed sign-varying fill (a function of the global index,
// so the estimate is decomposition invariant) overlaps every mode.
func (k *KSP) estimateMaxEig() (float64, error) {
	l := k.a.Layout()
	n := l.LocalN
	// Workspace slots 4-6: solveChebyshev owns 0-3 for the iteration.
	ws := k.ws.Vecs(n, 7)
	v, t, w := ws[4], ws[5], ws[6]
	for i := range v {
		h := uint64(l.Start+i+1) * 0x9E3779B97F4A7C15
		h ^= h >> 33
		v[i] = float64(h%2048)/1024 - 1
	}
	lmax := 1.0
	for it := 0; it < 20; it++ {
		k.a.Apply(t, v)
		k.pc.Apply(w, t)
		nrm := k.red.Norm2(w)
		if nrm == 0 || math.IsNaN(nrm) {
			break
		}
		lmax = nrm
		inv := 1 / nrm
		for i := range v {
			v[i] = w[i] * inv
		}
	}
	return lmax, nil
}
