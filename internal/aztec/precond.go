package aztec

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/pmat"
)

// preconditioner applies z = M⁻¹·r on local blocks. Implementations may
// perform collective operations (all ranks apply in lockstep).
type preconditioner interface {
	apply(z, r []float64)
}

// newPreconditioner builds the preconditioner selected by options.
// Preconditioners other than AZNone require row access (a RowMatrix).
func newPreconditioner(rm RowMatrix, options []int, params []float64) (preconditioner, error) {
	switch options[AZPrecond] {
	case AZNone:
		return identityPrec{}, nil
	}
	if rm == nil {
		return nil, fmt.Errorf("aztec: preconditioner %d requires a RowMatrix (matrix-free operators must use AZNone)", options[AZPrecond])
	}
	switch options[AZPrecond] {
	case AZJacobi:
		return newJacobiPrec(rm, options[AZPolyOrd])
	case AZNeumann:
		return newNeumannPrec(rm, options[AZPolyOrd])
	case AZLs:
		return newLsPrec(rm, options[AZPolyOrd])
	case AZSymGS:
		return newSymGSPrec(rm, options[AZPolyOrd])
	case AZDomDecomp:
		return newDomDecompPrec(rm, options[AZOverlap], params[AZDrop], params[AZIlutFill])
	}
	return nil, fmt.Errorf("aztec: unknown preconditioner %d", options[AZPrecond])
}

type identityPrec struct{}

func (identityPrec) apply(z, r []float64) { copy(z, r) }

// jacobiPrec is k-step Jacobi relaxation with the local diagonal.
type jacobiPrec struct {
	invDiag []float64
	steps   int
	rm      RowMatrix
	scratch []float64
}

// invDiagonal returns the reciprocals of rm's local diagonal; a zero
// entry is an error naming the preconditioner that needs them.
func invDiagonal(rm RowMatrix, name string) ([]float64, error) {
	d, err := rm.ExtractDiagonalCopy()
	if err != nil {
		return nil, err
	}
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("aztec: %s: zero diagonal at local row %d", name, i)
		}
		inv[i] = 1 / v
	}
	return inv, nil
}

func newJacobiPrec(rm RowMatrix, steps int) (*jacobiPrec, error) {
	inv, err := invDiagonal(rm, "AZJacobi")
	if err != nil {
		return nil, err
	}
	if steps < 1 {
		steps = 1
	}
	return &jacobiPrec{invDiag: inv, steps: steps, rm: rm,
		scratch: make([]float64, len(inv))}, nil
}

func (p *jacobiPrec) apply(z, r []float64) {
	// z₀ = D⁻¹ r ; z_{k+1} = z_k + D⁻¹ (r − A z_k)
	for i := range z {
		z[i] = r[i] * p.invDiag[i]
	}
	for s := 1; s < p.steps; s++ {
		if err := p.rm.Apply(p.scratch, z); err != nil {
			panic(fmt.Sprintf("aztec: AZJacobi apply: %v", err))
		}
		for i := range z {
			z[i] += (r[i] - p.scratch[i]) * p.invDiag[i]
		}
	}
}

// neumannPrec approximates A⁻¹ by the truncated Neumann series of the
// diagonally scaled operator: with N = I − D⁻¹A,
// M⁻¹ = (I + N + … + N^p) D⁻¹.
type neumannPrec struct {
	invDiag []float64
	order   int
	rm      RowMatrix
	t, q    []float64
}

func newNeumannPrec(rm RowMatrix, order int) (*neumannPrec, error) {
	inv, err := invDiagonal(rm, "AZNeumann")
	if err != nil {
		return nil, err
	}
	if order < 0 {
		order = 0
	}
	return &neumannPrec{invDiag: inv, order: order, rm: rm,
		t: make([]float64, len(inv)), q: make([]float64, len(inv))}, nil
}

func (p *neumannPrec) apply(z, r []float64) {
	// t = D⁻¹ r ; z = t ; repeat: t = N t = t − D⁻¹ A t ; z += t
	for i := range p.t {
		p.t[i] = r[i] * p.invDiag[i]
	}
	copy(z, p.t)
	for k := 0; k < p.order; k++ {
		if err := p.rm.Apply(p.q, p.t); err != nil {
			panic(fmt.Sprintf("aztec: AZNeumann apply: %v", err))
		}
		for i := range p.t {
			p.t[i] -= p.q[i] * p.invDiag[i]
			z[i] += p.t[i]
		}
	}
}

// lsPrec is a least-squares-flavored polynomial preconditioner realized
// as Chebyshev acceleration on the diagonally scaled operator over an
// estimated eigenvalue interval [λmax/30, λmax] (λmax from a few power
// iterations at setup).
type lsPrec struct {
	invDiag      []float64
	order        int
	rm           RowMatrix
	lmin, lmax   float64
	t, q, pv, zk []float64
}

func newLsPrec(rm RowMatrix, order int) (*lsPrec, error) {
	inv, err := invDiagonal(rm, "AZLs")
	if err != nil {
		return nil, err
	}
	n := len(inv)
	if order < 1 {
		order = 1
	}
	p := &lsPrec{invDiag: inv, order: order, rm: rm,
		t: make([]float64, n), q: make([]float64, n),
		pv: make([]float64, n), zk: make([]float64, n)}

	// Estimate λmax(D⁻¹A) with a few power iterations (collective).
	red := pmat.NewReducer(rm.RowMap().Comm())
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	lmax := 1.0
	for it := 0; it < 10; it++ {
		if err := rm.Apply(p.q, v); err != nil {
			return nil, err
		}
		for i := range p.q {
			p.q[i] *= inv[i]
		}
		nrm := red.Norm2(p.q)
		if nrm == 0 {
			break
		}
		lmax = nrm
		for i := range v {
			v[i] = p.q[i] / nrm
		}
	}
	p.lmax = 1.1 * lmax
	p.lmin = p.lmax / 30
	return p, nil
}

func (p *lsPrec) apply(z, r []float64) {
	// Chebyshev iteration on D⁻¹A z = D⁻¹ r, zero initial guess.
	theta := (p.lmax + p.lmin) / 2
	delta := (p.lmax - p.lmin) / 2
	n := len(z)
	scaledApply := func(dst, src []float64) {
		if err := p.rm.Apply(dst, src); err != nil {
			panic(fmt.Sprintf("aztec: AZLs apply: %v", err))
		}
		for i := range dst {
			dst[i] *= p.invDiag[i]
		}
	}
	// residual t = D⁻¹ r (z=0)
	for i := 0; i < n; i++ {
		p.t[i] = r[i] * p.invDiag[i]
		z[i] = 0
	}
	var alpha, beta float64
	for k := 0; k < p.order; k++ {
		switch k {
		case 0:
			alpha = 1 / theta
			copy(p.pv, p.t)
		default:
			if k == 1 {
				beta = 0.5 * (delta * alpha) * (delta * alpha)
			} else {
				beta = (delta * alpha / 2) * (delta * alpha / 2)
			}
			alpha = 1 / (theta - beta/alpha)
			for i := 0; i < n; i++ {
				p.pv[i] = p.t[i] + beta*p.pv[i]
			}
		}
		for i := 0; i < n; i++ {
			z[i] += alpha * p.pv[i]
		}
		scaledApply(p.q, p.pv)
		for i := 0; i < n; i++ {
			p.t[i] -= alpha * p.q[i]
		}
	}
}

// symGSPrec performs k symmetric Gauss–Seidel sweeps (forward then
// backward) on the local diagonal block, from a zero initial guess.
type symGSPrec struct {
	tri    *par.RowTri
	sweeps int
}

func newSymGSPrec(rm RowMatrix, sweeps int) (*symGSPrec, error) {
	blk, err := rowMatrixDiagBlock(rm)
	if err != nil {
		return nil, err
	}
	tri, bad := par.SplitAtDiagonal(blk.RowPtr, blk.ColInd, blk.Vals)
	if tri == nil {
		return nil, fmt.Errorf("aztec: AZSymGS: zero diagonal at local row %d", bad)
	}
	return &symGSPrec{tri: tri, sweeps: max(sweeps, 1)}, nil
}

func (p *symGSPrec) apply(z, r []float64) {
	clear(z)
	for s := 0; s < p.sweeps; s++ {
		p.tri.GaussSeidel(z, r, false)
		p.tri.GaussSeidel(z, r, true)
	}
}

// domDecompPrec is additive-Schwarz domain decomposition: each rank
// solves its diagonal block with ILUT. With AZOverlap > 0 on more than
// one rank it upgrades to restricted additive Schwarz with overlapping
// subdomains (see overlapSchwarz).
// poolAware preconditioners accept the solver's intra-rank worker pool
// (handed down when the preconditioner is built or the pool changes).
type poolAware interface {
	setPool(p *par.Pool)
}

type domDecompPrec struct {
	f *ILUT
}

func (p *domDecompPrec) setPool(pl *par.Pool) { p.f.EnableLevels(pl) }

func newDomDecompPrec(rm RowMatrix, overlap int, drop, fill float64) (preconditioner, error) {
	if overlap > 0 && rm.RowMap().Comm().Size() > 1 {
		return newOverlapSchwarz(rm, overlap, drop, math.Max(fill, 1))
	}
	blk, err := rowMatrixDiagBlock(rm)
	if err != nil {
		return nil, err
	}
	f, err := NewILUT(blk, drop, math.Max(fill, 1))
	if err != nil {
		return nil, fmt.Errorf("aztec: AZDomDecomp: %w", err)
	}
	return &domDecompPrec{f: f}, nil
}

func (p *domDecompPrec) apply(z, r []float64) { p.f.Solve(z, r) }
