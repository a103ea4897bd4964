package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cca"
	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/slu"
	"repro/internal/sparse"
)

func run(t *testing.T, p int, fn func(c *comm.Comm)) {
	t.Helper()
	w, err := comm.NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(fn); err != nil {
		t.Fatalf("Run on %d ranks: %v", p, err)
	}
}

// referenceSolution solves the problem serially with the direct solver.
func referenceSolution(t *testing.T, p mesh.Problem) []float64 {
	t.Helper()
	a, b, err := p.GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	f, err := slu.Factor(a, slu.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// wire builds the Figure 4 assembly on one rank's framework: a driver
// and one solver component of the given class, connected.
func wire(t *testing.T, c *comm.Comm, solverClass string) (*cca.Framework, *DriverComponent) {
	t.Helper()
	fw := cca.NewFramework(c)
	if err := fw.CreateInstance("driver", ClassDriver); err != nil {
		t.Fatal(err)
	}
	if err := fw.CreateInstance("solver", solverClass); err != nil {
		t.Fatal(err)
	}
	if err := fw.Connect("driver", "solver", "solver", PortSparseSolver); err != nil {
		t.Fatal(err)
	}
	comp, err := fw.Instance("driver")
	if err != nil {
		t.Fatal(err)
	}
	return fw, comp.(*DriverComponent)
}

var iterativeParams = map[string]string{
	"solver":         "gmres",
	"preconditioner": "ilu",
	"tol":            "1e-10",
	"maxits":         "4000",
}

func checkAgainstReference(t *testing.T, c *comm.Comm, res *Result, ref []float64, tol float64, label string) {
	t.Helper()
	got := pmat.AllGather(res.Layout, res.X)
	maxErr := 0.0
	for i := range ref {
		if e := math.Abs(got[i] - ref[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > tol {
		t.Errorf("%s: max error vs reference %g > %g", label, maxErr, tol)
	}
}

func TestAllComponentsSolvePaperProblem(t *testing.T) {
	p := mesh.PaperProblem(12) // n²=144, nnz = 5·144−48
	ref := referenceSolution(t, p)
	for _, class := range []string{ClassKSPSolver, ClassAztecSolver, ClassSLUSolver} {
		for _, np := range []int{1, 2, 4} {
			run(t, np, func(c *comm.Comm) {
				_, driver := wire(t, c, class)
				res, err := driver.SolveProblem(p, CSR, iterativeParams)
				if err != nil {
					t.Fatalf("%s on %d ranks: %v", class, np, err)
				}
				if !res.Converged {
					t.Fatalf("%s: not converged", class)
				}
				checkAgainstReference(t, c, res, ref, 1e-5, class)
			})
		}
	}
}

func TestIterationCountsReported(t *testing.T) {
	p := mesh.PaperProblem(10)
	run(t, 2, func(c *comm.Comm) {
		_, driver := wire(t, c, ClassKSPSolver)
		res, err := driver.SolveProblem(p, CSR, iterativeParams)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations < 1 {
			t.Errorf("iterative component reported %d iterations", res.Iterations)
		}
		_, driver2 := wire(t, c, ClassSLUSolver)
		res2, err := driver2.SolveProblem(p, CSR, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Iterations != 0 {
			t.Errorf("direct component reported %d iterations", res2.Iterations)
		}
	})
}

// TestDriverRejectsBadParameter: a parameter the connected component
// refuses ends SolveProblem with the refusal, never a solve on the
// default it would have replaced.
func TestDriverRejectsBadParameter(t *testing.T) {
	p := mesh.PaperProblem(6)
	for _, tc := range []struct {
		class, key, value, want string
	}{
		{ClassKSPSolver, "frobnicate", "1", Check(ErrUnknownKey).Error()},
		{ClassKSPSolver, "tol", "abc", Check(ErrBadArg).Error()},
		{ClassKSPSolver, "tol", "NaN", Check(ErrBadArg).Error()},
		{ClassKSPSolver, "tol", "Inf", Check(ErrBadArg).Error()},
		{ClassKSPSolver, "atol", "NaN", Check(ErrBadArg).Error()},
		{ClassKSPSolver, "damping", "NaN", Check(ErrBadArg).Error()},
		{ClassAztecSolver, "frobnicate", "1", Check(ErrUnknownKey).Error()},
		{ClassAztecSolver, "tol", "abc", Check(ErrBadArg).Error()},
		{ClassAztecSolver, "tol", "Inf", Check(ErrBadArg).Error()},
		{ClassAztecSolver, "drop_tol", "NaN", Check(ErrBadArg).Error()},
		{ClassAztecSolver, "fill", "+Inf", Check(ErrBadArg).Error()},
		{ClassSLUSolver, "frobnicate", "1", Check(ErrUnknownKey).Error()},
		{ClassSLUSolver, "ordering", "abc", Check(ErrBadArg).Error()},
		{ClassSLUSolver, "pivot_threshold", "NaN", Check(ErrBadArg).Error()},
	} {
		run(t, 1, func(c *comm.Comm) {
			_, driver := wire(t, c, tc.class)
			res, err := driver.SolveProblem(p, CSR, map[string]string{tc.key: tc.value})
			if err == nil || !strings.Contains(err.Error(), tc.want) || res != nil {
				t.Errorf("%s %s=%s: result %t, error %v; want no result and %q", tc.class, tc.key, tc.value, res != nil, err, tc.want)
			}
		})
	}
}

func TestCOOPathMatchesCSRPath(t *testing.T) {
	p := mesh.PaperProblem(8)
	ref := referenceSolution(t, p)
	for _, format := range []SparseStruct{CSR, COO} {
		run(t, 3, func(c *comm.Comm) {
			_, driver := wire(t, c, ClassKSPSolver)
			res, err := driver.SolveProblem(p, format, iterativeParams)
			if err != nil {
				t.Fatalf("format %v: %v", format, err)
			}
			checkAgainstReference(t, c, res, ref, 1e-5, format.String())
		})
	}
}

// setupComponent drives a raw component (no framework) through the LISI
// call sequence on one rank for a small dense-logic test.
func setupComponent(t *testing.T, c *comm.Comm, s SparseSolver, a *sparse.CSR, b []float64) {
	t.Helper()
	n := a.Rows
	mustOK(t, s.Initialize(c), "Initialize")
	mustOK(t, s.SetStartRow(0), "SetStartRow")
	mustOK(t, s.SetLocalRows(n), "SetLocalRows")
	mustOK(t, s.SetLocalNNZ(a.NNZ()), "SetLocalNNZ")
	mustOK(t, s.SetGlobalCols(n), "SetGlobalCols")
	mustOK(t, s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, n+1, a.NNZ()), "SetupMatrix")
	mustOK(t, s.SetupRHS(b, n, 1), "SetupRHS")
}

func mustOK(t *testing.T, code int, what string) {
	t.Helper()
	if code != OK {
		t.Fatalf("%s returned %d: %v", what, code, Check(code))
	}
}

func TestMSRAndOffsetPaths(t *testing.T) {
	// Same small diagonally dominant system fed through MSR and through
	// 1-based CSR; both must reproduce the direct solution.
	a := sparse.RandomDiagDominant(20, 3, 5)
	xstar := sparse.RandomVector(20, 9)
	b := make([]float64, 20)
	a.MulVec(b, xstar)

	run(t, 1, func(c *comm.Comm) {
		// MSR path.
		m, err := sparse.MSRFromCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		s := NewKSPComponent()
		mustOK(t, s.Initialize(c), "Initialize")
		mustOK(t, s.SetStartRow(0), "SetStartRow")
		mustOK(t, s.SetLocalRows(20), "SetLocalRows")
		mustOK(t, s.SetGlobalCols(20), "SetGlobalCols")
		mustOK(t, s.SetupMatrix(m.Val, m.Ind, m.Ind, MSR, len(m.Ind), a.NNZ()), "SetupMatrix(MSR)")
		mustOK(t, s.SetupRHS(b, 20, 1), "SetupRHS")
		mustOK(t, s.Set("tol", "1e-12"), "Set tol")
		x := make([]float64, 20)
		status := make([]float64, StatusLen)
		mustOK(t, s.Solve(x, status, 20, StatusLen), "Solve")
		for i := range x {
			if math.Abs(x[i]-xstar[i]) > 1e-8 {
				t.Fatalf("MSR path: x[%d] err %g", i, math.Abs(x[i]-xstar[i]))
			}
		}

		// 1-based (Fortran-style) CSR path through the offset overload.
		rp := make([]int, len(a.RowPtr))
		for i, v := range a.RowPtr {
			rp[i] = v + 1
		}
		ci := make([]int, len(a.ColInd))
		for i, v := range a.ColInd {
			ci[i] = v + 1
		}
		s2 := NewKSPComponent()
		mustOK(t, s2.Initialize(c), "Initialize")
		mustOK(t, s2.SetStartRow(0), "SetStartRow")
		mustOK(t, s2.SetLocalRows(20), "SetLocalRows")
		mustOK(t, s2.SetGlobalCols(20), "SetGlobalCols")
		mustOK(t, s2.SetupMatrixOffset(a.Vals, rp, ci, CSR, 21, a.NNZ(), 1), "SetupMatrixOffset")
		mustOK(t, s2.SetupRHS(b, 20, 1), "SetupRHS")
		mustOK(t, s2.Set("tol", "1e-12"), "Set tol")
		x2 := make([]float64, 20)
		mustOK(t, s2.Solve(x2, status, 20, StatusLen), "Solve offset")
		for i := range x2 {
			if math.Abs(x2[i]-xstar[i]) > 1e-8 {
				t.Fatalf("offset path: x[%d] err %g", i, math.Abs(x2[i]-xstar[i]))
			}
		}
	})
}

func TestVBRAndFEMExtensions(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		// VBR: 4x4 block tridiagonal from Laplace2D(2,2).
		a := sparse.Laplace2D(2, 2)
		vbr, err := sparse.VBRFromCSR(a, []int{0, 2, 4}, []int{0, 2, 4})
		if err != nil {
			t.Fatal(err)
		}
		s := NewKSPComponent()
		mustOK(t, s.Initialize(c), "Initialize")
		mustOK(t, s.SetStartRow(0), "SetStartRow")
		mustOK(t, s.SetLocalRows(4), "SetLocalRows")
		mustOK(t, s.SetGlobalCols(4), "SetGlobalCols")
		mustOK(t, s.SetBlockSize(2), "SetBlockSize")
		mustOK(t, s.SetupMatrixVBR(vbr.RPntr, vbr.CPntr, vbr.BPntr, vbr.BInd, vbr.Indx, vbr.Val), "SetupMatrixVBR")
		b := []float64{1, 2, 3, 4}
		mustOK(t, s.SetupRHS(b, 4, 1), "SetupRHS")
		mustOK(t, s.Set("tol", "1e-12"), "tol")
		x := make([]float64, 4)
		status := make([]float64, StatusLen)
		mustOK(t, s.Solve(x, status, 4, StatusLen), "Solve")
		r := a.Residual(b, x)
		if sparse.Norm2(r) > 1e-8 {
			t.Errorf("VBR path residual %g", sparse.Norm2(r))
		}

		// The 3-array signature must reject VBR/FEM.
		if code := s.SetupMatrix(vbr.Val, vbr.RPntr, vbr.BInd, VBR, len(vbr.RPntr), len(vbr.Val)); code != ErrUnsupported {
			t.Errorf("SetupMatrix(VBR) returned %d, want ErrUnsupported", code)
		}

		// FEM: two 1D elements assembling [1 -1 0; -1 2 -1; 0 -1 1] plus
		// identity regularization to make it nonsingular.
		s2 := NewKSPComponent()
		mustOK(t, s2.Initialize(c), "Initialize")
		mustOK(t, s2.SetStartRow(0), "SetStartRow")
		mustOK(t, s2.SetLocalRows(3), "SetLocalRows")
		mustOK(t, s2.SetGlobalCols(3), "SetGlobalCols")
		nodes := []int{0, 1, 1, 2}
		ke := []float64{2, -1, -1, 2, 2, -1, -1, 2}
		mustOK(t, s2.SetupMatrixFEM(2, nodes, ke), "SetupMatrixFEM")
		b2 := []float64{1, 0, 1}
		mustOK(t, s2.SetupRHS(b2, 3, 1), "SetupRHS")
		mustOK(t, s2.Set("tol", "1e-12"), "tol")
		x2 := make([]float64, 3)
		mustOK(t, s2.Solve(x2, status, 3, StatusLen), "Solve FEM")
		// Assembled matrix is [2 -1 0; -1 4 -1; 0 -1 2].
		want := sparse.NewCOO(3, 3)
		want.Append(0, 0, 2)
		want.Append(0, 1, -1)
		want.Append(1, 0, -1)
		want.Append(1, 1, 4)
		want.Append(1, 2, -1)
		want.Append(2, 1, -1)
		want.Append(2, 2, 2)
		r2 := want.ToCSR().Residual(b2, x2)
		if sparse.Norm2(r2) > 1e-9 {
			t.Errorf("FEM path residual %g", sparse.Norm2(r2))
		}
	})
}

func TestCallOrderErrors(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		s := NewKSPComponent()
		x := make([]float64, 4)
		status := make([]float64, StatusLen)
		// Solve before anything.
		if code := s.Solve(x, status, 4, StatusLen); code != ErrBadState {
			t.Errorf("early Solve returned %d", code)
		}
		// SetupMatrix before distribution setters.
		if code := s.Initialize(c); code != OK {
			t.Fatal("init failed")
		}
		a := sparse.Identity(4)
		if code := s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, 5, 4); code != ErrBadState {
			t.Errorf("SetupMatrix before distribution returned %d", code)
		}
		// SetupRHS before distribution.
		if code := s.SetupRHS([]float64{1, 1, 1, 1}, 4, 1); code != ErrBadState {
			t.Errorf("SetupRHS before distribution returned %d", code)
		}
		// Initialize(nil).
		if code := s.Initialize(nil); code != ErrBadArg {
			t.Errorf("Initialize(nil) returned %d", code)
		}
		// Negative distribution values.
		if s.SetStartRow(-1) != ErrBadArg || s.SetLocalRows(-1) != ErrBadArg ||
			s.SetLocalNNZ(-1) != ErrBadArg || s.SetGlobalCols(-1) != ErrBadArg ||
			s.SetBlockSize(0) != ErrBadArg {
			t.Error("negative distribution values accepted")
		}
	})
}

func TestSetupValidation(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		s := NewKSPComponent()
		mustOK(t, s.Initialize(c), "init")
		mustOK(t, s.SetStartRow(0), "start")
		mustOK(t, s.SetLocalRows(4), "rows")
		mustOK(t, s.SetLocalNNZ(4), "nnz")
		mustOK(t, s.SetGlobalCols(4), "cols")
		a := sparse.Identity(4)
		// nnz mismatch with SetLocalNNZ.
		if code := s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, 5, 3); code != ErrBadArg {
			t.Errorf("nnz mismatch returned %d", code)
		}
		// Bad rowsLength.
		if code := s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, 4, 4); code != ErrBadArg {
			t.Errorf("bad rowsLength returned %d", code)
		}
		// Column out of range in COO.
		if code := s.SetupMatrixCOO([]float64{1, 1, 1, 1}, []int{0, 1, 2, 3}, []int{0, 1, 2, 9}, 4); code != ErrBadArg {
			t.Errorf("column out of range returned %d", code)
		}
		// Row outside this rank's block in COO.
		if code := s.SetupMatrixCOO([]float64{1}, []int{7}, []int{0}, 1); code != ErrBadArg {
			t.Errorf("row out of block returned %d", code)
		}
		// nil arrays.
		if code := s.SetupMatrix(nil, a.RowPtr, a.ColInd, CSR, 5, 4); code != ErrBadArg {
			t.Errorf("nil values returned %d", code)
		}
		mustOK(t, s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, 5, 4), "good setup")
		// RHS validation.
		if code := s.SetupRHS([]float64{1, 2}, 4, 1); code != ErrBadArg {
			t.Errorf("short rhs returned %d", code)
		}
		if code := s.SetupRHS([]float64{1, 2, 3, 4}, 4, 0); code != ErrBadArg {
			t.Errorf("nRhs=0 returned %d", code)
		}
		mustOK(t, s.SetupRHS([]float64{1, 2, 3, 4}, 4, 1), "good rhs")
		// Solve arg validation.
		x := make([]float64, 4)
		status := make([]float64, StatusLen)
		if code := s.Solve(x, status, 3, StatusLen); code != ErrBadArg {
			t.Errorf("wrong numLocalRow returned %d", code)
		}
		if code := s.Solve(make([]float64, 2), status, 4, StatusLen); code != ErrBadArg {
			t.Errorf("short solution returned %d", code)
		}
		if code := s.Solve(x, nil, 4, StatusLen); code != ErrBadArg {
			t.Errorf("nil status returned %d", code)
		}
	})
}

func TestParameterValidationPerComponent(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		ks := NewKSPComponent()
		az := NewAztecComponent()
		sl := NewSLUComponent()

		// Valid settings for each vocabulary.
		mustOK(t, ks.Set("solver", "cg"), "ksp solver")
		mustOK(t, ks.SetDouble("tol", 1e-8), "ksp tol")
		mustOK(t, ks.SetInt("maxits", 100), "ksp maxits")
		mustOK(t, ks.SetInt("restart", 25), "ksp restart")
		mustOK(t, az.Set("solver", "cgs"), "aztec solver")
		mustOK(t, az.Set("preconditioner", "ilut"), "aztec pc")
		mustOK(t, az.SetDouble("drop_tol", 0.01), "aztec drop")
		mustOK(t, az.Set("scaling", "rowsum"), "aztec scaling")
		mustOK(t, az.Set("conv", "rhs"), "aztec conv")
		mustOK(t, sl.Set("ordering", "rcm"), "slu ordering")
		mustOK(t, sl.SetDouble("pivot_threshold", 0.5), "slu thresh")
		mustOK(t, sl.SetBool("equilibrate", true), "slu equil")
		mustOK(t, sl.SetInt("refine_steps", 2), "slu refine")
		// Direct component tolerates iterative keys.
		mustOK(t, sl.Set("tol", "1e-9"), "slu tol tolerated")
		mustOK(t, sl.Set("solver", "whatever"), "slu solver tolerated")

		// Bad values.
		if ks.Set("solver", "nonsense") != ErrBadArg {
			t.Error("ksp bad solver accepted")
		}
		if ks.Set("tol", "-1") != ErrBadArg {
			t.Error("ksp bad tol accepted")
		}
		if az.Set("preconditioner", "nonsense") != ErrBadArg {
			t.Error("aztec bad pc accepted")
		}
		if az.Set("maxits", "0") != ErrBadArg {
			t.Error("aztec bad maxits accepted")
		}
		if sl.Set("ordering", "zzz") != ErrBadArg {
			t.Error("slu bad ordering accepted")
		}
		if sl.Set("pivot_threshold", "2") != ErrBadArg {
			t.Error("slu bad threshold accepted")
		}

		// Unknown keys.
		if ks.Set("zzz", "1") != ErrUnknownKey {
			t.Error("ksp unknown key accepted")
		}
		if az.Set("zzz", "1") != ErrUnknownKey {
			t.Error("aztec unknown key accepted")
		}
		if sl.Set("zzz", "1") != ErrUnknownKey {
			t.Error("slu unknown key accepted")
		}

		// GetAll mentions the component and stored keys.
		if s := ks.GetAll(); !strings.Contains(s, "component=lisi.solver.ksp") || !strings.Contains(s, "solver=cg") {
			t.Errorf("ksp GetAll:\n%s", s)
		}
		if s := az.GetAll(); !strings.Contains(s, "backend=aztec") {
			t.Errorf("aztec GetAll:\n%s", s)
		}
		if s := sl.GetAll(); !strings.Contains(s, "ignored.tol=1e-9") {
			t.Errorf("slu GetAll should mark ignored keys:\n%s", s)
		}
	})
}

func TestMultipleRHS(t *testing.T) {
	a := sparse.RandomDiagDominant(15, 3, 2)
	const nRhs = 3
	xs := make([][]float64, nRhs)
	bs := make([]float64, 0, 15*nRhs)
	for r := 0; r < nRhs; r++ {
		xs[r] = sparse.RandomVector(15, int64(r+10))
		b := make([]float64, 15)
		a.MulVec(b, xs[r])
		bs = append(bs, b...)
	}
	for _, mk := range []func() SparseSolver{
		func() SparseSolver { return NewKSPComponent() },
		func() SparseSolver { return NewAztecComponent() },
		func() SparseSolver { return NewSLUComponent() },
	} {
		run(t, 1, func(c *comm.Comm) {
			s := mk()
			mustOK(t, s.Initialize(c), "init")
			mustOK(t, s.SetStartRow(0), "start")
			mustOK(t, s.SetLocalRows(15), "rows")
			mustOK(t, s.SetGlobalCols(15), "cols")
			mustOK(t, s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, 16, a.NNZ()), "setup")
			mustOK(t, s.SetupRHS(bs, 15, nRhs), "rhs")
			if code := s.Set("tol", "1e-11"); code != OK && code != ErrUnknownKey {
				t.Fatalf("tol: %d", code)
			}
			sol := make([]float64, 15*nRhs)
			status := make([]float64, StatusLen)
			mustOK(t, s.Solve(sol, status, 15, StatusLen), "solve")
			for r := 0; r < nRhs; r++ {
				for i := 0; i < 15; i++ {
					if math.Abs(sol[r*15+i]-xs[r][i]) > 1e-7 {
						t.Fatalf("rhs %d: x[%d] err %g", r, i, math.Abs(sol[r*15+i]-xs[r][i]))
					}
				}
			}
		})
	}
}

func TestFactorizationReuse(t *testing.T) {
	a := sparse.RandomDiagDominant(12, 3, 4)
	run(t, 1, func(c *comm.Comm) {
		s := NewSLUComponent()
		mustOK(t, s.Initialize(c), "init")
		mustOK(t, s.SetStartRow(0), "start")
		mustOK(t, s.SetLocalRows(12), "rows")
		mustOK(t, s.SetGlobalCols(12), "cols")
		mustOK(t, s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, 13, a.NNZ()), "setup")
		b := sparse.RandomVector(12, 1)
		x := make([]float64, 12)
		status := make([]float64, StatusLen)

		// Three solves with different RHS: exactly one factorization
		// (use case §5.2b/c).
		for i := 0; i < 3; i++ {
			mustOK(t, s.SetupRHS(sparse.RandomVector(12, int64(i)), 12, 1), "rhs")
			mustOK(t, s.Solve(x, status, 12, StatusLen), "solve")
		}
		if got := int(status[StatusFactorizations]); got != 1 {
			t.Errorf("factorizations = %d after 3 solves, want 1", got)
		}

		// New matrix values (same pattern): must refactor (§5.2d).
		a2 := a.Clone()
		for i := range a2.Vals {
			a2.Vals[i] *= 1.5
		}
		mustOK(t, s.SetupMatrix(a2.Vals, a2.RowPtr, a2.ColInd, CSR, 13, a2.NNZ()), "setup2")
		mustOK(t, s.SetupRHS(b, 12, 1), "rhs2")
		mustOK(t, s.Solve(x, status, 12, StatusLen), "solve2")
		if got := int(status[StatusFactorizations]); got != 2 {
			t.Errorf("factorizations = %d after matrix change, want 2", got)
		}
	})
}

// appOperator implements the MatrixFree port for a known matrix.
type appOperator struct {
	a       *sparse.CSR
	invDiag []float64
	calls   int
}

func (o *appOperator) MatMult(id ID, x, y []float64, length int) int {
	o.calls++
	switch id {
	case IDMatrix:
		o.a.MulVec(y, x)
	case IDPreconditioner:
		for i := range y {
			y[i] = x[i] * o.invDiag[i]
		}
	default:
		return ErrBadArg
	}
	return OK
}

func TestMatrixFreeDirectSet(t *testing.T) {
	a := sparse.Laplace2D(5, 5)
	xstar := sparse.RandomVector(25, 3)
	b := make([]float64, 25)
	a.MulVec(b, xstar)
	inv := make([]float64, 25)
	for i := range inv {
		inv[i] = 1.0 / 4
	}
	run(t, 1, func(c *comm.Comm) {
		for _, mk := range []func() SparseSolver{
			func() SparseSolver { return NewKSPComponent() },
			func() SparseSolver { return NewAztecComponent() },
		} {
			s := mk()
			op := &appOperator{a: a, invDiag: inv}
			mustOK(t, s.Initialize(c), "init")
			mustOK(t, s.SetStartRow(0), "start")
			mustOK(t, s.SetLocalRows(25), "rows")
			mustOK(t, s.SetGlobalCols(25), "cols")
			mustOK(t, s.SetMatrixFree(op), "matfree")
			mustOK(t, s.SetupRHS(b, 25, 1), "rhs")
			if code := s.Set("tol", "1e-11"); code != OK {
				t.Fatalf("tol: %d", code)
			}
			x := make([]float64, 25)
			status := make([]float64, StatusLen)
			mustOK(t, s.Solve(x, status, 25, StatusLen), "solve")
			for i := range x {
				if math.Abs(x[i]-xstar[i]) > 1e-7 {
					t.Fatalf("matrix-free x[%d] err %g", i, math.Abs(x[i]-xstar[i]))
				}
			}
			if op.calls == 0 {
				t.Error("MatMult never called")
			}
			// A replaced port applies the operator from the next Solve on.
			op2 := &appOperator{a: a, invDiag: inv}
			mustOK(t, s.SetMatrixFree(op2), "matfree again")
			before := op.calls
			mustOK(t, s.Solve(x, status, 25, StatusLen), "solve again")
			if op2.calls == 0 || op.calls != before {
				t.Errorf("after SetMatrixFree: new port %d calls, replaced port %d more", op2.calls, op.calls-before)
			}
			// Each port staged is a new operator in the slot: one setup
			// each, on ksp and aztec alike.
			if got := status[StatusFactorizations]; got != 2 {
				t.Errorf("%T: %v factorizations after two ports, want 2", s, got)
			}
		}

		// Direct component cannot run matrix-free.
		sl := NewSLUComponent()
		op := &appOperator{a: a, invDiag: inv}
		mustOK(t, sl.Initialize(c), "init")
		mustOK(t, sl.SetStartRow(0), "start")
		mustOK(t, sl.SetLocalRows(25), "rows")
		mustOK(t, sl.SetGlobalCols(25), "cols")
		mustOK(t, sl.SetMatrixFree(op), "matfree")
		mustOK(t, sl.SetupRHS(b, 25, 1), "rhs")
		x := make([]float64, 25)
		status := make([]float64, StatusLen)
		if code := sl.Solve(x, status, 25, StatusLen); code != ErrUnsupported {
			t.Errorf("slu matrix-free returned %d, want ErrUnsupported", code)
		}
	})
}

func TestMatrixFreePreconditionerCallback(t *testing.T) {
	a := sparse.Laplace2D(6, 6)
	n := 36
	xstar := sparse.RandomVector(n, 8)
	b := make([]float64, n)
	a.MulVec(b, xstar)
	inv := make([]float64, n)
	for i := range inv {
		inv[i] = 0.25
	}
	run(t, 1, func(c *comm.Comm) {
		s := NewKSPComponent()
		op := &appOperator{a: a, invDiag: inv}
		mustOK(t, s.Initialize(c), "init")
		mustOK(t, s.SetStartRow(0), "start")
		mustOK(t, s.SetLocalRows(n), "rows")
		mustOK(t, s.SetGlobalCols(n), "cols")
		mustOK(t, s.SetMatrixFree(op), "matfree")
		mustOK(t, s.SetBool("matfree_pc", true), "matfree_pc")
		mustOK(t, s.Set("tol", "1e-11"), "tol")
		mustOK(t, s.SetupRHS(b, n, 1), "rhs")
		x := make([]float64, n)
		status := make([]float64, StatusLen)
		mustOK(t, s.Solve(x, status, n, StatusLen), "solve")
		for i := range x {
			if math.Abs(x[i]-xstar[i]) > 1e-7 {
				t.Fatalf("x[%d] err %g", i, math.Abs(x[i]-xstar[i]))
			}
		}
	})
}

func TestMatrixFreeThroughCCAPort(t *testing.T) {
	// Figure 1(c): the application provides a MatrixFree port; the solver
	// fetches it through its uses port when connected.
	a := sparse.Laplace2D(4, 4)
	xstar := sparse.RandomVector(16, 5)
	b := make([]float64, 16)
	a.MulVec(b, xstar)
	cca.RegisterClass("test.mfapp", func() cca.Component {
		return &mfApp{op: &appOperator{a: a, invDiag: nil}}
	})
	run(t, 1, func(c *comm.Comm) {
		fw := cca.NewFramework(c)
		if err := fw.CreateInstance("app", "test.mfapp"); err != nil {
			t.Fatal(err)
		}
		if err := fw.CreateInstance("solver", ClassKSPSolver); err != nil {
			t.Fatal(err)
		}
		if err := fw.Connect("solver", PortMatrixFree, "app", PortMatrixFree); err != nil {
			t.Fatal(err)
		}
		comp, _ := fw.Instance("solver")
		s := comp.(*KSPComponent)
		mustOK(t, s.SetStartRow(0), "start")
		mustOK(t, s.SetLocalRows(16), "rows")
		mustOK(t, s.SetGlobalCols(16), "cols")
		mustOK(t, s.SetupRHS(b, 16, 1), "rhs")
		mustOK(t, s.Set("tol", "1e-11"), "tol")
		x := make([]float64, 16)
		status := make([]float64, StatusLen)
		mustOK(t, s.Solve(x, status, 16, StatusLen), "solve")
		for i := range x {
			if math.Abs(x[i]-xstar[i]) > 1e-7 {
				t.Fatalf("CCA matrix-free x[%d] err %g", i, math.Abs(x[i]-xstar[i]))
			}
		}
	})

	// A wired port is pulled only while nothing is staged: with a matrix
	// staged through SetupMatrix, the solve is the matrix's, not the
	// wired identity's (which converges in one iteration to x = b).
	lap := sparse.Laplace2D(9, 9)
	lstar := sparse.RandomVector(81, 5)
	lb := make([]float64, 81)
	lap.MulVec(lb, lstar)
	cca.RegisterClass("test.mfapp.identity", func() cca.Component {
		return &mfApp{op: &stagingOp{}}
	})
	for _, class := range []string{ClassKSPSolver, ClassAztecSolver} {
		run(t, 1, func(c *comm.Comm) {
			fw := cca.NewFramework(c)
			if err := fw.CreateInstance("app", "test.mfapp.identity"); err != nil {
				t.Fatal(err)
			}
			if err := fw.CreateInstance("solver", class); err != nil {
				t.Fatal(err)
			}
			if err := fw.Connect("solver", PortMatrixFree, "app", PortMatrixFree); err != nil {
				t.Fatal(err)
			}
			comp, _ := fw.Instance("solver")
			s := comp.(SparseSolver)
			mustOK(t, s.Set("preconditioner", "none"), "preconditioner")
			mustOK(t, s.Set("tol", "1e-11"), "tol")
			mustOK(t, s.SetStartRow(0), "start")
			mustOK(t, s.SetLocalRows(81), "rows")
			mustOK(t, s.SetGlobalCols(81), "cols")
			mustOK(t, s.SetupMatrix(lap.Vals, lap.RowPtr, lap.ColInd, CSR, 82, lap.NNZ()), "matrix")
			mustOK(t, s.SetupRHS(lb, 81, 1), "rhs")
			x := make([]float64, 81)
			status := make([]float64, StatusLen)
			mustOK(t, s.Solve(x, status, 81, StatusLen), "solve")
			if r := sparse.NormInf(lap.Residual(lb, x)); r > 1e-8 {
				t.Errorf("%s: wired identity over a staged matrix: %v iterations, ‖A·x − b‖∞ = %.3g on the staged matrix",
					class, status[StatusIterations], r)
			}
		})
	}
}

// mfApp is an application component providing only the MatrixFree port
// (the §5.6c pattern).
type mfApp struct {
	op MatrixFree
}

func (m *mfApp) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(m.op, PortMatrixFree, PortTypeMatrixFree)
}

func TestDynamicSolverSwap(t *testing.T) {
	// Figure 4: one driver, three solver components, re-wired at run time
	// with no driver code changes.
	p := mesh.PaperProblem(10)
	ref := referenceSolution(t, p)
	run(t, 2, func(c *comm.Comm) {
		fw := cca.NewFramework(c)
		if err := fw.CreateInstance("driver", ClassDriver); err != nil {
			t.Fatal(err)
		}
		for name, class := range map[string]string{
			"petsc-role":    ClassKSPSolver,
			"trilinos-role": ClassAztecSolver,
			"superlu-role":  ClassSLUSolver,
		} {
			if err := fw.CreateInstance(name, class); err != nil {
				t.Fatal(err)
			}
		}
		comp, _ := fw.Instance("driver")
		driver := comp.(*DriverComponent)
		for _, name := range []string{"petsc-role", "trilinos-role", "superlu-role"} {
			if err := fw.Connect("driver", "solver", name, PortSparseSolver); err != nil {
				t.Fatal(err)
			}
			res, err := driver.SolveProblem(p, CSR, iterativeParams)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkAgainstReference(t, c, res, ref, 1e-5, name)
			if err := fw.Disconnect("driver", "solver"); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestCheckAndEnums(t *testing.T) {
	if Check(OK) != nil {
		t.Error("Check(OK) != nil")
	}
	for _, code := range []int{ErrBadArg, ErrBadState, ErrUnknownKey, ErrSolveFailed, ErrUnsupported, -99} {
		if Check(code) == nil {
			t.Errorf("Check(%d) == nil", code)
		}
	}
	for s, want := range map[SparseStruct]string{CSR: "CSR", COO: "COO", MSR: "MSR", VBR: "VBR", FEM: "FEM"} {
		if s.String() != want {
			t.Errorf("SparseStruct %d = %q", int(s), s.String())
		}
	}
	if !strings.Contains(SparseStruct(42).String(), "42") {
		t.Error("unknown SparseStruct string")
	}
}

func TestInconsistentDistributionFails(t *testing.T) {
	// SetStartRow inconsistent with the layout must fail. Every rank
	// shifts its start row by one so every rank fails the same check —
	// Solve's layout validation is collective, so the error must be
	// collective too.
	run(t, 2, func(c *comm.Comm) {
		s := NewKSPComponent()
		mustOK(t, s.Initialize(c), "init")
		mustOK(t, s.SetStartRow(c.Rank()*4+1), "start") // off by one on all ranks
		mustOK(t, s.SetLocalRows(4), "rows")
		mustOK(t, s.SetGlobalCols(8), "cols")
		coo := sparse.NewCOO(4, 8)
		for i := 0; i < 4; i++ {
			coo.Append(i, i+c.Rank()*4, 1)
		}
		lc := coo.ToCSR()
		mustOK(t, s.SetupMatrix(lc.Vals, lc.RowPtr, lc.ColInd, CSR, 5, 4), "setup")
		mustOK(t, s.SetupRHS([]float64{1, 1, 1, 1}, 4, 1), "rhs")
		x := make([]float64, 4)
		status := make([]float64, StatusLen)
		if code := s.Solve(x, status, 4, StatusLen); code == OK {
			t.Error("inconsistent start row succeeded")
		}
	})
}

func TestStatusLengthRespected(t *testing.T) {
	a := sparse.Identity(4)
	run(t, 1, func(c *comm.Comm) {
		s := NewKSPComponent()
		setupComponent(t, c, s, a, []float64{1, 2, 3, 4})
		x := make([]float64, 4)
		status := []float64{-7, -7, -7, -7}
		// statusLength 2: only the first two slots may change.
		mustOK(t, s.Solve(x, status, 4, 2), "solve")
		if status[2] != -7 || status[3] != -7 {
			t.Errorf("Solve wrote beyond statusLength: %v", status)
		}
	})
}
