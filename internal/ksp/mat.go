// Package ksp is the PETSc-role solver package of this reproduction: a
// distributed-memory Krylov subspace solver library with the Mat/Vec/PC/KSP
// object model and an option database, mirroring the call shape of PETSc's
// KSP component that the CCA-LISI paper wraps.
//
// A Mat is either assembled (backed by a pmat.Mat) or a "shell" defined
// only by a user apply callback — the PETSc MatShell mechanism the paper's
// matrix-free requirement (§5.5) maps onto. A KSP owns a method type, a
// preconditioner (PC), tolerances, and monitors; Solve iterates until the
// preconditioned residual satisfies the PETSc-style test
// ‖r‖ ≤ max(rtol·‖r₀‖, atol) or divergence is detected.
//
// Vectors are plain []float64 slices holding each rank's conformal block;
// global reductions go through the communicator of the operator's layout.
package ksp

import (
	"fmt"

	"repro/internal/pmat"
	"repro/internal/sparse"
)

// Mat is the operator abstraction solved by a KSP. It is either assembled
// (wrapping a distributed pmat.Mat) or matrix-free (a shell with an apply
// callback).
type Mat struct {
	layout *pmat.Layout
	pm     *pmat.Mat // nil for shell matrices
	apply  func(y, x []float64)
}

// NewMat wraps an assembled distributed matrix.
func NewMat(m *pmat.Mat) *Mat {
	return &Mat{layout: m.L, pm: m, apply: m.Apply}
}

// NewShellMat creates a matrix-free operator: apply must compute y = A·x
// on each rank's conformal blocks (and may communicate internally).
func NewShellMat(l *pmat.Layout, apply func(y, x []float64)) *Mat {
	return &Mat{layout: l, apply: apply}
}

// Layout returns the row/vector distribution of the operator.
func (a *Mat) Layout() *pmat.Layout { return a.layout }

// Apply computes y = A·x (collective).
func (a *Mat) Apply(y, x []float64) { a.apply(y, x) }

// Assembled returns the underlying distributed matrix, or nil for shell
// operators.
func (a *Mat) Assembled() *pmat.Mat { return a.pm }

// Diagonal returns the local diagonal, or an error for shell operators
// (which cannot produce one — the same restriction PETSc applies unless
// the shell registers MATOP_GET_DIAGONAL).
func (a *Mat) Diagonal() ([]float64, error) {
	if a.pm == nil {
		return nil, fmt.Errorf("ksp: shell matrix has no diagonal; use a preconditioner that does not need one")
	}
	return a.pm.Diagonal(), nil
}

// DiagBlock returns the local diagonal block for block preconditioners,
// or an error for shell operators. The block is the operator's own
// storage (pmat.Mat.DiagBlock): read it, never write it.
func (a *Mat) DiagBlock() (*sparse.CSR, error) {
	if a.pm == nil {
		return nil, fmt.Errorf("ksp: shell matrix has no accessible diagonal block")
	}
	return a.pm.DiagBlock(), nil
}
