package ksp

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/sparse"
)

// PC is a preconditioner: Apply computes z = M⁻¹·r on the local blocks.
// SetUp is called once per operator (and again after the operator's
// values change).
type PC interface {
	// SetUp prepares the preconditioner for the given operator.
	SetUp(a *Mat) error
	// Apply computes z = M⁻¹ r; z and r have the local vector length
	// and must not alias.
	Apply(z, r []float64)
}

// Preconditioner type names accepted by NewPC (mirroring PETSc's -pc_type
// vocabulary).
const (
	PCNone    = "none"
	PCJacobi  = "jacobi"
	PCBJacobi = "bjacobi" // block Jacobi with a local ILU(0) inner solve
	PCSOR     = "sor"
	PCSSOR    = "ssor"
	PCILU     = "ilu" // local ILU(0) (processor-block incomplete LU)
)

// NewPC constructs a preconditioner by type name.
func NewPC(typ string) (PC, error) {
	switch typ {
	case PCNone, "":
		return &pcNone{}, nil
	case PCJacobi:
		return &pcJacobi{}, nil
	case PCBJacobi, PCILU:
		return &pcBlockILU{name: typ}, nil
	case PCSOR:
		return &pcSOR{}, nil
	case PCSSOR:
		return &pcSOR{symmetric: true}, nil
	}
	return nil, fmt.Errorf("ksp: unknown preconditioner type %q", typ)
}

// pcNone is the identity preconditioner.
type pcNone struct{}

func (*pcNone) SetUp(a *Mat) error { return nil }
func (*pcNone) Apply(z, r []float64) {
	copy(z, r)
}

// pcJacobi scales by the inverse diagonal.
type pcJacobi struct {
	invDiag []float64
}

func (p *pcJacobi) SetUp(a *Mat) error {
	d, err := a.Diagonal()
	if err != nil {
		return fmt.Errorf("ksp: jacobi: %w", err)
	}
	p.invDiag = make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			return fmt.Errorf("ksp: jacobi: %w at local row %d", sparse.ErrZeroDiagonal, i)
		}
		p.invDiag[i] = 1 / v
	}
	return nil
}

func (p *pcJacobi) Apply(z, r []float64) {
	for i := range z {
		z[i] = r[i] * p.invDiag[i]
	}
}

// pcBlockILU is processor-block Jacobi with an ILU(0) factorization of
// each rank's diagonal block — PETSc's default parallel preconditioner
// (bjacobi + ilu). Its sweeps are serial at every worker count.
type pcBlockILU struct {
	name string
	f    *ILU0
}

func (p *pcBlockILU) SetUp(a *Mat) error {
	blk, err := a.DiagBlock()
	if err != nil {
		return fmt.Errorf("ksp: %s: %w", p.name, err)
	}
	f, err := NewILU0(blk)
	if err != nil {
		return fmt.Errorf("ksp: %s: %w", p.name, err)
	}
	p.f = f
	return nil
}

func (p *pcBlockILU) Apply(z, r []float64) {
	p.f.Solve(z, r)
}

// pcSOR is SOR (one forward Gauss–Seidel sweep, ω = 1) or, symmetric,
// SSOR (forward then backward) on the local diagonal block, from a zero
// initial guess.
type pcSOR struct {
	symmetric bool
	tri       *par.RowTri
}

func (p *pcSOR) SetUp(a *Mat) error {
	blk, err := a.DiagBlock()
	if err != nil {
		return fmt.Errorf("ksp: sor: %w", err)
	}
	tri, bad := par.SplitAtDiagonal(blk.RowPtr, blk.ColInd, blk.Vals)
	if tri == nil {
		return fmt.Errorf("ksp: sor: %w at local row %d", sparse.ErrZeroDiagonal, bad)
	}
	p.tri = tri
	return nil
}

func (p *pcSOR) Apply(z, r []float64) {
	clear(z)
	p.tri.GaussSeidel(z, r, false)
	if p.symmetric {
		p.tri.GaussSeidel(z, r, true)
	}
}
