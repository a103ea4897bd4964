package pmat

import (
	"math"

	"repro/internal/sparse"
)

// Workspace is the per-solver scratch a Krylov package reuses across
// repeated solves. Vectors are keyed by the local problem size; a size
// change drops and rebuilds them, so steady-state solves against an
// unchanged layout allocate nothing here.
type Workspace struct {
	n       int         // length of the vectors in scratch
	scratch [][]float64 // generic per-method scratch, grown on demand

	basisN int // length of the vectors in v and z

	// The restarted-GMRES arrays grow a step at a time (see step), so
	// a long restart that converges early costs only the steps it took:
	// v is the Krylov basis, z the flexible (FGMRES) directions, h the
	// Hessenberg by columns, column j the j+2 entries step j fills, then
	// the least-squares rhs, the Givens pairs and the back-substitution.
	v, z, h      [][]float64
	g, cs, sn, y []float64
}

// vecs returns count persistent length-n scratch vectors. Contents are
// unspecified: every method must fully initialize what it reads.
func (ws *Workspace) vecs(n, count int) [][]float64 {
	if ws.n != n {
		ws.scratch = nil
		ws.n = n
	}
	for len(ws.scratch) < count {
		ws.scratch = append(ws.scratch, make([]float64, n))
	}
	return ws.scratch[:count]
}

// krylov readies the restarted-GMRES arrays for local size n: v_0 and
// g_0, what a cycle writes before its first step.
func (ws *Workspace) krylov(n int) {
	if ws.basisN != n {
		ws.v, ws.z = nil, nil
		ws.basisN = n
	}
	if len(ws.v) == 0 {
		ws.v = append(ws.v, make([]float64, n))
	}
	if len(ws.g) == 0 {
		ws.g = append(ws.g, 0)
	}
}

// step makes what Arnoldi step j writes, the first time any cycle
// reaches it: v_{j+1}, Hessenberg column j, g_{j+1}, the j-th Givens
// pair and y_j, and with flexible set z_j. Later solves reuse them.
func (ws *Workspace) step(j int, flexible bool) {
	if len(ws.v) == j+1 {
		ws.v = append(ws.v, make([]float64, ws.basisN))
	}
	if len(ws.h) == j {
		ws.h = append(ws.h, make([]float64, j+2))
		ws.g = append(ws.g, 0)
		ws.cs = append(ws.cs, 0)
		ws.sn = append(ws.sn, 0)
		ws.y = append(ws.y, 0)
	}
	if flexible && len(ws.z) == j {
		ws.z = append(ws.z, make([]float64, ws.basisN))
	}
}

// gmresCycle is one cycle of restarted GMRES(m) with modified
// Gram–Schmidt and Givens-rotation least squares. w holds the start
// residual, beta = ‖w‖ > 0, and t is scratch of the same length. Each
// step writes the new direction for v_j into w (M⁻¹·A·v_j, or with
// flexible set z_j = M⁻¹·v_j and then A·z_j), runs orthogonalize,
// normalises the new basis vector by w·(1/h) (a zero vector when
// h ≤ 1e-300, a breakdown), rotates the new Hessenberg column by the
// earlier rotations, makes the next rotation with givens and hands
// |g[j+1]| to sys.Stop. After m steps or a stop, x gains the
// least-squares update from the basis, or with flexible set from the
// stored directions z_j. it counts iterations across cycles;
// gmresCycle returns it advanced and whether sys.Stop ended the cycle.
func (ws *Workspace) gmresCycle(red *Reducer, sys KrylovSystem, x, w, t []float64, beta float64, m, it int, flexible bool) (int, bool) {
	ws.krylov(len(x))
	inv := 1 / beta
	for i := range w {
		ws.v[0][i] = w[i] * inv
	}
	clear(ws.g)
	ws.g[0] = beta

	j, stop := 0, false
	for ; j < m && !stop; j++ {
		it++
		ws.step(j, flexible)
		v, g, cs, sn := ws.v, ws.g, ws.cs, ws.sn
		if flexible {
			sys.Precondition(ws.z[j], v[j])
			sys.Apply(w, ws.z[j])
		} else {
			applyMA(sys, w, t, v[j])
		}
		h := ws.h[j]
		if hj1 := orthogonalize(red, w, v[:j+1], h); hj1 > 1e-300 {
			inv := 1 / hj1
			for i := range w {
				v[j+1][i] = w[i] * inv
			}
		} else {
			// Breakdown: leave a deterministic zero direction rather
			// than whatever a previous restart or solve left behind.
			clear(v[j+1])
		}
		for i := 0; i < j; i++ {
			hi := h[i]
			h[i] = cs[i]*hi + sn[i]*h[i+1]
			h[i+1] = -sn[i]*hi + cs[i]*h[i+1]
		}
		cs[j], sn[j] = givens(h[j], h[j+1])
		h[j] = cs[j]*h[j] + sn[j]*h[j+1]
		h[j+1] = 0
		g[j+1] = -sn[j] * g[j]
		g[j] = cs[j] * g[j]
		stop = sys.Stop(it, math.Abs(g[j+1]))
	}
	if flexible {
		ws.hessenbergUpdate(x, ws.z, j)
	} else {
		ws.hessenbergUpdate(x, ws.v, j)
	}
	return it, stop
}

// KrylovSystem is what a Krylov package hands every Krylov loop here:
// its operator and preconditioner, and the policy that decides and
// records every exit. The loops own every reduction; the policy sees
// norms.
type KrylovSystem interface {
	Apply(y, x []float64)        // y = A·x
	Precondition(z, r []float64) // z = M⁻¹·r
	// Start reports whether the solve ends at iteration 0, given ‖r₀‖
	// (TFQMR: ‖M⁻¹r₀‖) and ‖b‖. GMRES calls Restart instead.
	Start(rnorm, bnorm float64) bool
	// Stop reports whether the solve ends after iteration it, whose
	// residual norm is rnorm; the iteration budget is the policy's.
	Stop(it int, rnorm float64) bool
	// HalfStop reports whether BiCGSTAB ends at the half step of
	// iteration it, where x += α·M⁻¹p leaves the residual s.
	HalfStop(it int, snorm float64) bool
	// SmallOmega reports whether BiCGSTAB's ω is too small to go on.
	SmallOmega(omega float64) bool
	// Breakdown records that iteration it broke down. rnorm is the last
	// residual norm the loop computed; indefinite marks CG's p·q ≤ 0.
	Breakdown(it int, rnorm float64, indefinite bool)
	// Restart reports whether GMRES ends at the restart after
	// iteration it (0 at the first), given the recomputed residual norm
	// beta and ‖b‖. It must stop on beta = 0.
	Restart(it int, beta, bnorm float64) bool
	// TrustEstimate reports whether a GMRES cycle that Stop ended on
	// its least-squares estimate ends the solve; if not, the next
	// restart tests the recomputed residual.
	TrustEstimate() bool
}

// residual writes r = b − A·x.
func residual(sys interface{ Apply(y, x []float64) }, r, x, b []float64) {
	sys.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
}

// applyMA writes w = M⁻¹·A·v, with t as scratch.
func applyMA(sys KrylovSystem, w, t, v []float64) {
	sys.Apply(t, v)
	sys.Precondition(w, t)
}

// GMRES is restarted GMRES(m). Each restart recomputes r = b − A·x,
// takes it through M⁻¹ unless flexible is set, and hands its norm β to
// sys.Restart; the first restart's β and ‖b‖ share one AllReduce. The
// cycle (gmresCycle) then runs one of two variants:
//
//   - flexible unset: left-preconditioned, w = M⁻¹·A·v_j, x += V·y, so
//     β and the estimates are preconditioned residual norms;
//   - flexible set (FGMRES): right-preconditioned with the directions
//     z_j = M⁻¹·v_j stored, w = A·z_j, x += Z·y, so the preconditioner
//     may change between iterations (e.g. an inner iterative solve) and
//     β is the true residual norm.
//
// A cycle that sys.Stop ended ends the solve when sys.TrustEstimate
// holds; otherwise the next restart decides.
func (ws *Workspace) GMRES(red *Reducer, sys KrylovSystem, x, b []float64, m int, flexible bool) {
	scratch := ws.vecs(len(x), 2)
	w, t := scratch[0], scratch[1]
	r := t
	if flexible {
		r = w
	}
	it := 0
	var beta, bnorm float64
	for {
		residual(sys, r, x, b)
		if !flexible {
			sys.Precondition(w, r)
		}
		if it == 0 {
			beta, bnorm = red.Norm2x2(w, b)
		} else {
			beta = red.Norm2(w)
		}
		if sys.Restart(it, beta, bnorm) {
			return
		}
		var stop bool
		it, stop = ws.gmresCycle(red, sys, x, w, t, beta, m, it, flexible)
		if stop && sys.TrustEstimate() {
			return
		}
	}
}

// CG is preconditioned conjugate gradients (SPD operator, SPD
// preconditioner), tested on the true residual norm. ‖r₀‖, ‖b‖ and the
// first r·z share one AllReduce. Each iteration applies the
// preconditioner before its test, so ‖r‖ and r·z share one too: one
// extra local apply on the last iteration, a collective round fewer on
// every other. x += α·p and r −= α·q share one pass (sparse.Axpy2).
func (ws *Workspace) CG(red *Reducer, sys KrylovSystem, x, b []float64) {
	w := ws.vecs(len(x), 4)
	r, z, p, q := w[0], w[1], w[2], w[3]
	residual(sys, r, x, b)
	sys.Precondition(z, r)
	rnorm, bnorm, rz := red.Norm2x2Dot(r, b, r, z)
	if sys.Start(rnorm, bnorm) {
		return
	}
	copy(p, z)
	for it := 1; ; it++ {
		sys.Apply(q, p)
		pq := red.Dot(p, q)
		if pq <= 0 {
			// A or M⁻¹ is not positive definite on this Krylov space.
			sys.Breakdown(it, rnorm, true)
			return
		}
		alpha := rz / pq
		sparse.Axpy2(alpha, p, x, -alpha, q, r)
		sys.Precondition(z, r)
		var rzNew float64
		rnorm, rzNew = red.NormDot(r, z)
		if sys.Stop(it, rnorm) {
			return
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
}

// BiCGSTAB is van der Vorst's stabilized bi-conjugate gradients with
// the preconditioner applied inside the update directions (PETSc's bcgs
// formulation), tested on the true residual norm. ‖r₀‖, ‖b‖ and the
// first ρ = r̂·r share one AllReduce, (t·t, t·s) share one, and each
// iteration's ‖r‖ shares one with the next ρ: three collective rounds
// per iteration.
func (ws *Workspace) BiCGSTAB(red *Reducer, sys KrylovSystem, x, b []float64) {
	w := ws.vecs(len(x), 8)
	r, rhat, p, v := w[0], w[1], w[2], w[3]
	s, t, phat, shat := w[4], w[5], w[6], w[7]
	residual(sys, r, x, b)
	copy(rhat, r)
	rnorm, bnorm, rhoNext := red.Norm2x2Dot(r, b, rhat, r)
	if sys.Start(rnorm, bnorm) {
		return
	}
	rho, alpha, omega := 1.0, 1.0, 1.0
	for it := 1; ; it++ {
		rhoNew := rhoNext
		if rhoNew == 0 {
			sys.Breakdown(it, rnorm, false)
			return
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
		sys.Precondition(phat, p)
		sys.Apply(v, phat)
		rv := red.Dot(rhat, v)
		if rv == 0 {
			sys.Breakdown(it, rnorm, false)
			return
		}
		alpha = rho / rv
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		snorm := red.Norm2(s)
		if sys.HalfStop(it, snorm) {
			sparse.Axpy(alpha, phat, x)
			return
		}
		sys.Precondition(shat, s)
		sys.Apply(t, shat)
		tt, ts := red.Dot2(t, t, t, s)
		if tt == 0 {
			sys.Breakdown(it, snorm, false)
			return
		}
		omega = ts / tt
		if sys.SmallOmega(omega) {
			sys.Breakdown(it, snorm, false)
			return
		}
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
			r[i] = s[i] - omega*t[i]
		}
		rnorm, rhoNext = red.NormDot(r, rhat)
		if sys.Stop(it, rnorm) {
			return
		}
	}
}

// CGS is Sonneveld's conjugate gradient squared, preconditioned inside
// the update directions and tested on the true residual norm. ‖r₀‖,
// ‖b‖ and the first ρ = r̃·r share one AllReduce, and each iteration's
// ‖r‖ shares one with the next ρ: two collective rounds per iteration.
// x and r take their α updates in one pass, after the product r needs.
func (ws *Workspace) CGS(red *Reducer, sys KrylovSystem, x, b []float64) {
	w := ws.vecs(len(x), 9)
	r, rtld, p, q := w[0], w[1], w[2], w[3]
	u, uhat, vhat, qhat, t := w[4], w[5], w[6], w[7], w[8]
	residual(sys, r, x, b)
	copy(rtld, r)
	rnorm, bnorm, rhoNext := red.Norm2x2Dot(r, b, rtld, r)
	if sys.Start(rnorm, bnorm) {
		return
	}
	var rho, rhoOld float64
	for it := 1; ; it++ {
		rho = rhoNext
		if rho == 0 {
			sys.Breakdown(it, rnorm, false)
			return
		}
		if it == 1 {
			copy(u, r)
			copy(p, u)
		} else {
			beta := rho / rhoOld
			for i := range u {
				u[i] = r[i] + beta*q[i]
				p[i] = u[i] + beta*(q[i]+beta*p[i])
			}
		}
		sys.Precondition(uhat, p)
		sys.Apply(vhat, uhat)
		sigma := red.Dot(rtld, vhat)
		if sigma == 0 {
			sys.Breakdown(it, rnorm, false)
			return
		}
		alpha := rho / sigma
		for i := range q {
			q[i] = u[i] - alpha*vhat[i]
		}
		for i := range t {
			t[i] = u[i] + q[i]
		}
		sys.Precondition(qhat, t)
		sys.Apply(t, qhat)
		sparse.Axpy2(alpha, qhat, x, -alpha, t, r)
		rhoOld = rho
		rnorm, rhoNext = red.NormDot(r, rtld)
		if sys.Stop(it, rnorm) {
			return
		}
	}
}

// TFQMR is Freund's transpose-free QMR in the formulation of Kelley
// ("Iterative Methods for Linear and Nonlinear Equations", alg. 7.4.1),
// applied to the left-preconditioned system M⁻¹A·x = M⁻¹b. Each
// iteration makes two half steps, and each half step hands sys.Stop the
// estimate τ·√(m+1), which bounds the preconditioned residual norm.
// ‖M⁻¹r₀‖ and ‖b‖ share one AllReduce; the recurrence's reductions
// (σ, θ, ρ) each depend on the vector updates between them, so no
// other rounds are shared. The w update shares its pass with θ's norm.
func (ws *Workspace) TFQMR(red *Reducer, sys KrylovSystem, x, b []float64) {
	vs := ws.vecs(len(x), 10)
	scratch, r, r0, w := vs[0], vs[1], vs[2], vs[3]
	y1, y2, d, v := vs[4], vs[5], vs[6], vs[7]
	u1, u2 := vs[8], vs[9]

	residual(sys, scratch, x, b)
	sys.Precondition(r, scratch)
	copy(r0, r)
	copy(w, r)
	copy(y1, r)
	// d accumulates from zero; everything else is fully written before
	// it is read.
	clear(d)
	applyMA(sys, v, scratch, y1)
	copy(u1, v)

	tau, bnorm := red.Norm2x2(r, b)
	if sys.Start(tau, bnorm) {
		return
	}
	rnorm := tau
	theta, eta := 0.0, 0.0
	rho := tau * tau
	for it := 1; ; it++ {
		sigma := red.Dot(r0, v)
		if sigma == 0 {
			sys.Breakdown(it, rnorm, false)
			return
		}
		alpha := rho / sigma
		for j := 1; j <= 2; j++ {
			y, u := y1, u1
			if j == 2 {
				for i := range y2 {
					y2[i] = y1[i] - alpha*v[i]
				}
				applyMA(sys, u2, scratch, y2)
				y, u = y2, u2
			}
			m := float64(2*it - 2 + j)
			thetaOld, etaOld := theta, eta
			for i := range d {
				d[i] = y[i] + (thetaOld*thetaOld*etaOld/alpha)*d[i]
			}
			theta = red.AxpyNorm2(-alpha, u, w) / tau
			c := 1 / math.Sqrt(1+theta*theta)
			tau = tau * theta * c
			eta = c * c * alpha
			sparse.Axpy(eta, d, x)
			rnorm = tau * math.Sqrt(m+1)
			if sys.Stop(it, rnorm) {
				return
			}
		}
		if rho == 0 {
			sys.Breakdown(it, rnorm, false)
			return
		}
		rhoNew := red.Dot(r0, w)
		beta := rhoNew / rho
		rho = rhoNew
		for i := range y1 {
			y1[i] = w[i] + beta*y2[i]
		}
		applyMA(sys, u1, scratch, y1)
		for i := range v {
			v[i] = u1[i] + beta*(u2[i]+beta*v[i])
		}
	}
}

// PolySystem is what a package hands Richardson and Chebyshev: its
// operator and preconditioner, and its two stop tests. A solver tests
// the residual; a fixed-degree polynomial preconditioner stops on its
// degree and so makes no reduction and no product it would not use.
type PolySystem interface {
	Apply(y, x []float64)        // y = A·x
	Precondition(z, r []float64) // z = M⁻¹·r
	// LastUpdate reports whether iteration it ends with its update of
	// x, before the residual is updated.
	LastUpdate(it int) bool
	// ResidualStop reports whether the loop ends with residual r after
	// iteration it; at it = 0, r = b.
	ResidualStop(it int, r []float64) bool
}

// Richardson is damped preconditioned Richardson iteration,
// x ← x + s·M⁻¹(b − A·x), from x = 0: the first residual is b itself.
func (ws *Workspace) Richardson(sys PolySystem, x, b []float64, s float64) {
	w := ws.vecs(len(x), 2)
	r, z := w[0], w[1]
	copy(r, b)
	if sys.ResidualStop(0, r) {
		return
	}
	for it := 1; ; it++ {
		sys.Precondition(z, r)
		sparse.Axpy(s, z, x)
		if sys.LastUpdate(it) {
			return
		}
		residual(sys, r, x, b)
		if sys.ResidualStop(it, r) {
			return
		}
	}
}

// Chebyshev is the Chebyshev semi-iteration on M⁻¹A from x = 0 over
// the eigenvalue interval [emax/30, emax], PETSc's default heuristic
// for the bottom. It needs no inner product of its own, which is why
// multigrid smoothing and communication-avoiding settings favour it.
func (ws *Workspace) Chebyshev(sys PolySystem, x, b []float64, emax float64) {
	w := ws.vecs(len(x), 4)
	r, z, p, q := w[0], w[1], w[2], w[3]
	emin := emax / 30
	theta := (emax + emin) / 2
	delta := (emax - emin) / 2
	copy(r, b)
	if sys.ResidualStop(0, r) {
		return
	}
	var alpha, beta float64
	for it := 1; ; it++ {
		sys.Precondition(z, r)
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
		if sys.LastUpdate(it) {
			return
		}
		sys.Apply(q, p)
		sparse.Axpy(-alpha, q, r)
		if sys.ResidualStop(it, r) {
			return
		}
	}
}

// MaxEig estimates λmax(M⁻¹A) for Chebyshev by 20 power iterations and
// returns it widened by 10 %. The start vector must overlap the
// dominant eigenvector, which for preconditioned elliptic operators is
// high-frequency: a constant start is nearly orthogonal to it and
// underestimates λmax badly enough that the Chebyshev interval misses
// real eigenvalues. A hashed sign-varying fill of the global row index
// of l (so the estimate does not depend on the decomposition) overlaps
// every mode.
func (ws *Workspace) MaxEig(red *Reducer, sys PolySystem, l *Layout) float64 {
	w := ws.vecs(l.LocalN, 3)
	v, t, u := w[0], w[1], w[2]
	for i := range v {
		h := uint64(l.Start+i+1) * 0x9E3779B97F4A7C15
		h ^= h >> 33
		v[i] = float64(h%2048)/1024 - 1
	}
	lmax := 1.0
	for it := 0; it < 20; it++ {
		sys.Apply(t, v)
		sys.Precondition(u, t)
		nrm := red.Norm2(u)
		if nrm == 0 || math.IsNaN(nrm) {
			break
		}
		lmax = nrm
		inv := 1 / nrm
		for i := range v {
			v[i] = u[i] * inv
		}
	}
	return 1.1 * lmax
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

// orthogonalize is one Arnoldi step by modified Gram–Schmidt: w is
// orthogonalized against basis in order, the coefficients land in
// hcol[:len(basis)] and the norm of what is left in hcol[len(basis)],
// which is also returned. Each coefficient needs the previous one's
// update of w, so the rounds stay len(basis)+1; but each update shares
// its pass over w with the next coefficient's local partial, and the
// last with the norm's (Reducer.AxpyDot, AxpyNorm2), bit for bit the
// unfused Dot, Axpy, …, Axpy, Norm2 sequence.
func orthogonalize(red *Reducer, w []float64, basis [][]float64, hcol []float64) float64 {
	k := len(basis)
	hcol[0] = red.Dot(w, basis[0])
	for i := 1; i < k; i++ {
		hcol[i] = red.AxpyDot(-hcol[i-1], basis[i-1], w, basis[i])
	}
	norm := red.AxpyNorm2(-hcol[k-1], basis[k-1], w)
	hcol[k] = norm
	return norm
}

// hessenbergUpdate solves the kk×kk triangular system left in the
// rotated Hessenberg, H(0:kk,0:kk)·y = g(0:kk), and adds basis·y to x.
// A zero pivot (singular least-squares block) skips that direction.
func (ws *Workspace) hessenbergUpdate(x []float64, basis [][]float64, kk int) {
	y := ws.y[:kk]
	for i := kk - 1; i >= 0; i-- {
		s := ws.g[i]
		for j := i + 1; j < kk; j++ {
			s -= ws.h[j][i] * y[j]
		}
		if d := ws.h[i][i]; d != 0 {
			y[i] = s / d
		} else {
			y[i] = 0
		}
	}
	for j, yj := range y {
		sparse.Axpy(yj, basis[j], x)
	}
}
