package aztec

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/pmat"
	"repro/internal/sparse"
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
		return newPolyPrec(rm, "AZJacobi", max(options[AZPolyOrd], 1), false)
	case AZNeumann:
		return newPolyPrec(rm, "AZNeumann", max(options[AZPolyOrd], 0)+1, false)
	case AZLs:
		return newPolyPrec(rm, "AZLs", max(options[AZPolyOrd], 1), true)
	case AZSymGS:
		return newSymGSPrec(rm, options[AZPolyOrd])
	case AZDomDecomp:
		return newDomDecompPrec(rm, options[AZOverlap], params[AZDrop], params[AZIlutFill])
	}
	return nil, fmt.Errorf("aztec: unknown preconditioner %d", options[AZPrecond])
}

type identityPrec struct{}

func (identityPrec) apply(z, r []float64) { copy(z, r) }

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
			return nil, fmt.Errorf("aztec: %s: %w at local row %d", name, sparse.ErrZeroDiagonal, i)
		}
		inv[i] = 1 / v
	}
	return inv, nil
}

// polyPrec is a fixed-degree polynomial in D⁻¹A applied from z = 0 by
// pmat's shared loops, with D⁻¹ as their preconditioner. AZJacobi's k
// steps are the Richardson loop run k times. AZNeumann of order p,
// (I + N + … + N^p)·D⁻¹ with N = I − D⁻¹A, is the same series: p+1
// Jacobi steps. AZLs is the Chebyshev loop run p times over the
// interval of D⁻¹A that MaxEig estimates once, at set-up, in the
// preconditioner's own workspace: the apply runs inside the solver's
// Krylov loop and cannot share the solver's. An apply makes no
// reduction.
type polyPrec struct {
	name    string
	rm      RowMatrix
	invDiag []float64
	degree  int
	emax    float64 // > 0: Chebyshev over [emax/30, emax]; 0: Richardson
	ws      pmat.Workspace
}

func newPolyPrec(rm RowMatrix, name string, degree int, cheb bool) (*polyPrec, error) {
	m := rm.RowMap()
	inv, err := invDiagonal(rm, name)
	if cheb {
		// MaxEig below is collective.
		err = pmat.Agree(m.Comm(), err)
	}
	if err != nil {
		return nil, err
	}
	p := &polyPrec{name: name, rm: rm, invDiag: inv, degree: degree}
	if cheb {
		p.emax = p.ws.MaxEig(pmat.NewReducer(m.Comm()), p, m.Layout())
	}
	return p, nil
}

func (p *polyPrec) apply(z, r []float64) {
	clear(z)
	if p.emax > 0 {
		p.ws.Chebyshev(p, z, r, p.emax)
	} else {
		p.ws.Richardson(p, z, r, 1)
	}
}

// The pmat.PolySystem methods: the operator is A, the loops'
// preconditioner D⁻¹, and only the degree stops them.

func (p *polyPrec) Apply(y, x []float64) {
	if err := p.rm.Apply(y, x); err != nil {
		panic(fmt.Sprintf("aztec: %s apply: %v", p.name, err))
	}
}

func (p *polyPrec) Precondition(z, r []float64) {
	for i := range z {
		z[i] = r[i] * p.invDiag[i]
	}
}

func (p *polyPrec) LastUpdate(it int) bool { return it >= p.degree }

func (*polyPrec) ResidualStop(int, []float64) bool { return false }

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
		return nil, fmt.Errorf("aztec: AZSymGS: %w at local row %d", sparse.ErrZeroDiagonal, bad)
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
type domDecompPrec struct {
	f *ILUT
}

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
