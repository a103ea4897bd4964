package pmat

import "repro/internal/sparse"

// Workspace is the per-solver scratch a Krylov package reuses across
// repeated solves. Vectors are keyed by the local problem size and the
// restarted-GMRES arrays additionally by the restart length; a size
// change drops and rebuilds them, so steady-state solves against an
// unchanged layout allocate nothing here.
type Workspace struct {
	n    int         // length of the vectors in vecs
	vecs [][]float64 // generic per-method scratch, grown on demand

	basisN, basisM int // dimensions the Krylov arrays are sized for

	V [][]float64 // Krylov basis, m+1 vectors
	Z [][]float64 // flexible (FGMRES) directions, m vectors; built lazily
	// H is the (m+1)×m Hessenberg stored by columns, so the column an
	// Arnoldi step fills is the contiguous slice Col(j).
	H            []float64
	G, CS, SN, Y []float64 // least-squares rhs, Givens pairs, back-substitution
}

// Vecs returns count persistent length-n scratch vectors. Contents are
// unspecified: every method must fully initialize what it reads.
func (ws *Workspace) Vecs(n, count int) [][]float64 {
	if ws.n != n {
		ws.vecs = nil
		ws.n = n
	}
	for len(ws.vecs) < count {
		ws.vecs = append(ws.vecs, make([]float64, n))
	}
	return ws.vecs[:count]
}

// Krylov sizes the restarted-GMRES arrays for local size n and restart
// m; with flexible set the stored preconditioned directions Z are built
// too.
func (ws *Workspace) Krylov(n, m int, flexible bool) {
	if ws.basisN != n || ws.basisM != m {
		ws.V = makeVecs(m+1, n)
		ws.Z = nil
		ws.H = make([]float64, (m+1)*m)
		ws.G = make([]float64, m+1)
		ws.CS = make([]float64, m)
		ws.SN = make([]float64, m)
		ws.Y = make([]float64, m)
		ws.basisN, ws.basisM = n, m
	}
	if flexible && ws.Z == nil {
		ws.Z = makeVecs(m, n)
	}
}

func makeVecs(count, n int) [][]float64 {
	v := make([][]float64, count)
	for i := range v {
		v[i] = make([]float64, n)
	}
	return v
}

// Col returns column j of the Hessenberg (m+1 entries).
func (ws *Workspace) Col(j int) []float64 {
	ld := ws.basisM + 1
	return ws.H[j*ld : (j+1)*ld]
}

// Orthogonalize is one Arnoldi step by modified Gram–Schmidt: w is
// orthogonalized against basis in order, the coefficients land in
// hcol[:len(basis)] and the norm of what is left in hcol[len(basis)],
// which is also returned. Each dot reads the previous Axpy, so nothing
// is fused: len(basis)+1 collective rounds.
func Orthogonalize(red *Reducer, w []float64, basis [][]float64, hcol []float64) float64 {
	for i, v := range basis {
		hcol[i] = red.Dot(w, v)
		sparse.Axpy(-hcol[i], v, w)
	}
	norm := red.Norm2(w)
	hcol[len(basis)] = norm
	return norm
}

// HessenbergUpdate solves the kk×kk triangular system left in the
// rotated Hessenberg, H(0:kk,0:kk)·y = G(0:kk), and adds basis·y to x.
// A zero pivot (singular least-squares block) skips that direction.
func (ws *Workspace) HessenbergUpdate(x []float64, basis [][]float64, kk int) {
	y := ws.Y[:kk]
	for i := kk - 1; i >= 0; i-- {
		s := ws.G[i]
		for j := i + 1; j < kk; j++ {
			s -= ws.Col(j)[i] * y[j]
		}
		if d := ws.Col(i)[i]; d != 0 {
			y[i] = s / d
		} else {
			y[i] = 0
		}
	}
	for j, yj := range y {
		sparse.Axpy(yj, basis[j], x)
	}
}
