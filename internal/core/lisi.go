// Package core implements LISI — the LInear Solver Interface that is the
// primary contribution of the CCA-LISI paper — together with its three
// reference solver components wrapping the PETSc-role (ksp), the
// Trilinos-role (aztec) and the SuperLU-role (slu) packages.
//
// The SparseSolver interface transcribes the paper's SIDL specification
// (§7.2) into Go:
//
//   - one public interface, primitive-typed array arguments (§6.1),
//   - r-array semantics — 0-based slices passed by reference, in/inout
//     modes only (§6.2),
//   - separated distribution setters SetStartRow / SetLocalRows /
//     SetLocalNNZ / SetGlobalCols so the data-carrying calls need not
//     re-pass them (§6.3),
//   - uses ports on the application, provides ports on the solver, with
//     the single application-side provides port being MatrixFree (§5.6c,
//     §6.4),
//   - generic key/value parameter setters instead of per-parameter
//     methods (§6.5),
//   - block-row partitioning as the distribution model (§5.4).
//
// Methods return int status codes exactly as the SIDL interface does;
// Check converts a code into a Go error for idiomatic call sites.
package core

import (
	"fmt"

	"repro/internal/comm"
)

// SparseStruct identifies the input array format accepted by
// SetupMatrix, mirroring the SIDL enum `SparseStruct`.
type SparseStruct int

// Input data formats (paper §5.3 / SIDL listing).
const (
	CSR SparseStruct = iota
	COO
	MSR
	VBR
	FEM
)

// String returns the SIDL enum member name.
func (s SparseStruct) String() string {
	switch s {
	case CSR:
		return "CSR"
	case COO:
		return "COO"
	case MSR:
		return "MSR"
	case VBR:
		return "VBR"
	case FEM:
		return "FEM"
	}
	return fmt.Sprintf("SparseStruct(%d)", int(s))
}

// ID distinguishes which operator a MatrixFree callback is asked to
// apply, mirroring the SIDL enum `ID`.
type ID int

// MatrixFree operator identifiers.
const (
	IDMatrix ID = iota
	IDPreconditioner
)

// Status codes returned by every SparseSolver method (0 = success,
// negative = failure), standing in for the SIDL int returns.
const (
	OK             = 0
	ErrBadArg      = -1 // malformed argument (lengths, ranges)
	ErrBadState    = -2 // method called out of order
	ErrUnknownKey  = -3 // unrecognized parameter key
	ErrSolveFailed = -4 // the underlying solver did not converge / failed
	ErrUnsupported = -5 // capability not available in this component
	ErrAborted     = -6 // solve cancelled or deadline exceeded before completing
)

// Check converts a LISI status code into an error (nil for OK).
func Check(code int) error {
	switch code {
	case OK:
		return nil
	case ErrBadArg:
		return fmt.Errorf("lisi: bad argument")
	case ErrBadState:
		return fmt.Errorf("lisi: method called in wrong state")
	case ErrUnknownKey:
		return fmt.Errorf("lisi: unknown parameter key")
	case ErrSolveFailed:
		return fmt.Errorf("lisi: solve failed")
	case ErrUnsupported:
		return fmt.Errorf("lisi: operation unsupported by this component")
	case ErrAborted:
		return fmt.Errorf("lisi: solve aborted (cancelled or deadline exceeded)")
	}
	return fmt.Errorf("lisi: status code %d", code)
}

// Indices into the Status array filled by Solve (paper §7.2 leaves the
// status layout to the interface; this is LISI-Go's documented layout).
const (
	StatusIterations     = 0 // iterations performed (0 for direct solves)
	StatusResidual       = 1 // final residual norm reported by the solver
	StatusConverged      = 2 // 1 converged / 0 failed
	StatusFactorizations = 3 // cumulative factorization/setup count (reuse diagnostics)
	StatusFailReason     = 4 // typed failure reason (a FailReason value; 0 = none)
	StatusLen            = 5 // minimum useful StatusLength
)

// MatrixFree is the application-side provides port (SIDL interface
// `MatrixFree`): the solver calls back into the application for
// operator-vector products, enabling solves without an assembled matrix
// (paper §5.5). y is inout: the callback must write y = Op·x. The return
// value is a LISI status code.
//
// Data distribution is assumed already known to the application, as the
// paper specifies.
type MatrixFree interface {
	MatMult(id ID, x []float64, y []float64, length int) int
}

// SparseSolver is the LISI port (SIDL interface `SparseSolver`). It is
// implemented by solver components and used by application components.
// All slice arguments follow r-array rules: 0-based, non-nil, in or
// inout.
//
// Call order: Initialize → distribution setters → SetupMatrix* or
// SetMatrixFree → SetupRHS → (parameter setters anytime before Solve) →
// Solve. SetupRHS and Solve may be repeated for multiple right-hand
// sides (§5.2c); SetupMatrix may be repeated for a new system (§5.2d) —
// components reuse what their package allows (e.g. the direct component
// refactors only when the matrix changed).
type SparseSolver interface {
	// Initialize binds the component to the SPMD communicator (the
	// paper's `initialize(in long comm)`, with the handle replaced by a
	// typed communicator).
	Initialize(c *comm.Comm) int
	// SetBlockSize declares the block size of block formats (VBR).
	SetBlockSize(bs int) int

	// Block-row partitioning (paper §5.4, §6.3).
	SetStartRow(startRow int) int
	SetLocalRows(rows int) int
	SetLocalNNZ(nnz int) int
	SetGlobalCols(cols int) int

	// SetupMatrixCOO is the SIDL overload setupMatrix[few_args]:
	// coordinate triplets with global row and column indices.
	SetupMatrixCOO(values []float64, rows, cols []int, nnz int) int
	// SetupMatrix is the SIDL overload setupMatrix[media_args]: the
	// interpretation of the three arrays depends on dataStruct (CSR: rows
	// is the local row-pointer array; COO: triplets; MSR: rows is the
	// combined MSR index array and cols is ignored).
	SetupMatrix(values []float64, rows, cols []int, dataStruct SparseStruct, rowsLength, nnz int) int
	// SetupMatrixOffset is the SIDL overload setupMatrix[large_args];
	// offset is the index base of the passed arrays (e.g. 1 for
	// Fortran-style arrays) and is subtracted from every index.
	SetupMatrixOffset(values []float64, rows, cols []int, dataStruct SparseStruct, rowsLength, nnz, offset int) int

	// SetupRHS stages nRhs right-hand sides, stored one after another
	// (numLocalRow values each), matching §5.2c.
	SetupRHS(rightHandSide []float64, numLocalRow, nRhs int) int

	// Solve solves the staged system(s). Solution is inout and receives
	// this rank's block(s); Status is inout and receives the layout
	// documented at StatusIterations… (at most statusLength entries are
	// written).
	Solve(solution []float64, status []float64, numLocalRow, statusLength int) int

	// Generic parameter setters (§6.5). Each backend declares its
	// vocabulary once (BackendInfo.Params; the table is docs/SPEC.md
	// §7, from ParamTableMarkdown). A key outside it is ErrUnknownKey,
	// a value it refuses ErrBadArg.
	Set(key, value string) int
	SetInt(key string, value int) int
	SetBool(key string, value bool) int
	SetDouble(key string, value float64) int

	// GetAll returns the component's current configuration as
	// newline-separated key=value pairs (§7.2's get_all).
	GetAll() string

	// SetMatrixFree stages the application's MatrixFree port in place
	// of the matrix; nil goes back to the last staged matrix. The last
	// staging call wins (SPEC.md §4). Components whose package cannot
	// operate matrix-free return ErrUnsupported from Solve.
	SetMatrixFree(mf MatrixFree) int
}

// CCA port and class names used by the LISI components.
const (
	// PortTypeSparseSolver is the port type of the solver-side provides
	// port and the application-side uses port.
	PortTypeSparseSolver = "lisi.SparseSolver"
	// PortTypeMatrixFree is the port type of the application-side
	// provides port for matrix-free operation.
	PortTypeMatrixFree = "lisi.MatrixFree"

	// PortSparseSolver is the conventional provides-port name on solver
	// components.
	PortSparseSolver = "SparseSolver"
	// PortMatrixFree is the conventional uses-port name on solver
	// components (and provides-port name on applications).
	PortMatrixFree = "MatrixFreePort"

	// Component class names in the CCA registry.
	ClassKSPSolver   = "lisi.solver.ksp"
	ClassAztecSolver = "lisi.solver.aztec"
	ClassSLUSolver   = "lisi.solver.superlu"
	ClassMGSolver    = "lisi.solver.mg"
)
