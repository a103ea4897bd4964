package ksp

// solveGMRES is restarted GMRES(m): each restart recomputes the
// residual, tests it, and hands it to the shared cycle
// (pmat.Workspace.GMRESCycle). The two variants differ only in where
// the preconditioner sits and which basis updates x:
//
//   - flexible unset: left-preconditioned, w = M⁻¹·A·v_j, x += V·y, and
//     convergence is tested on the preconditioned residual norm, as in
//     PETSc's default GMRES convergence test;
//   - flexible set (FGMRES): right-preconditioned with the directions
//     z_j = M⁻¹·v_j stored, w = A·z_j, x += Z·y, so the preconditioner
//     may change between iterations (e.g. an inner iterative solve) and
//     the test sees the true residual norm.
func (k *KSP) solveGMRES(b, x []float64, flexible bool) error {
	scratch := k.ws.Vecs(len(x), 2)
	w, t := scratch[0], scratch[1]
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
		if it == 0 {
			k.rnorm0 = beta
		}
		if k.testConvergence(it, beta, k.rnorm0) {
			return nil
		}
		if beta == 0 {
			k.reason = ConvergedATol
			return nil
		}
		var stop bool
		it, stop = k.ws.GMRESCycle(k.red, (*krylovSystem)(k), x, w, t, beta, k.restart, it, flexible)
		if stop {
			return nil
		}
	}
}
