package ksp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/par"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
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

// distMat distributes a globally known CSR across the ranks.
func distMat(c *comm.Comm, global *sparse.CSR) *Mat {
	l, err := pmat.EvenLayout(c, global.Rows)
	if err != nil {
		panic(err)
	}
	local := global.SubMatrix(l.Start, l.Start+l.LocalN)
	m, err := pmat.NewMat(l, local)
	if err != nil {
		panic(err)
	}
	return NewMat(m)
}

// solveAndCheck runs a configured KSP on A·x = b with known solution and
// verifies the relative residual.
func solveAndCheck(t *testing.T, c *comm.Comm, global *sparse.CSR, k *KSP, a *Mat, tol float64) {
	t.Helper()
	n := global.Rows
	xstar := sparse.RandomVector(n, 99)
	bGlobal := make([]float64, n)
	global.MulVec(bGlobal, xstar)
	l := a.Layout()
	b := make([]float64, l.LocalN)
	copy(b, bGlobal[l.Start:l.Start+l.LocalN])
	x := make([]float64, l.LocalN)
	if err := k.Solve(b, x); err != nil {
		t.Fatalf("%s/%T on %d ranks: %v", k.typ, k.pc, c.Size(), err)
	}
	if !k.Reason().Converged() {
		t.Fatalf("%s: reason %v", k.typ, k.Reason())
	}
	res := a.Assembled().Residual(b, x)
	bnorm := pmat.Norm2(c, b)
	if res > tol*bnorm {
		t.Errorf("%s/%T on %d ranks: relative residual %.3e > %.1e", k.typ, k.pc, c.Size(), res/bnorm, tol)
	}
}

func TestAllMethodsSPD(t *testing.T) {
	global := sparse.Laplace2D(8, 8) // n=64, SPD
	for _, p := range []int{1, 2, 4} {
		for _, method := range []string{TypeCG, TypeBiCGStab, TypeGMRES, TypeTFQMR} {
			run(t, p, func(c *comm.Comm) {
				a := distMat(c, global)
				k := New(c)
				k.SetOperators(a)
				if err := k.SetType(method); err != nil {
					t.Fatal(err)
				}
				k.SetTolerances(1e-10, 0, 0, 2000)
				if err := k.SetPCType(PCBJacobi); err != nil {
					t.Fatal(err)
				}
				solveAndCheck(t, c, global, k, a, 1e-7)
			})
		}
	}
}

func TestRichardsonWithSSOR(t *testing.T) {
	global := sparse.Laplace2D(5, 5)
	run(t, 2, func(c *comm.Comm) {
		a := distMat(c, global)
		k := New(c)
		k.SetOperators(a)
		if err := k.SetType(TypeRichardson); err != nil {
			t.Fatal(err)
		}
		if err := k.SetPCType(PCSSOR); err != nil {
			t.Fatal(err)
		}
		k.SetTolerances(1e-8, 0, 0, 5000)
		solveAndCheck(t, c, global, k, a, 1e-6)
	})
}

func TestAllPreconditioners(t *testing.T) {
	global := sparse.Laplace2D(6, 6)
	for _, pc := range []string{PCNone, PCJacobi, PCBJacobi, PCSOR, PCSSOR, PCILU} {
		run(t, 2, func(c *comm.Comm) {
			a := distMat(c, global)
			k := New(c)
			k.SetOperators(a)
			if err := k.SetType(TypeGMRES); err != nil {
				t.Fatal(err)
			}
			if err := k.SetPCType(pc); err != nil {
				t.Fatal(err)
			}
			k.SetTolerances(1e-10, 0, 0, 3000)
			solveAndCheck(t, c, global, k, a, 1e-6)
		})
	}
}

func TestNonsymmetricSystem(t *testing.T) {
	global := sparse.RandomDiagDominant(60, 5, 4) // unsymmetric, dominant
	for _, method := range []string{TypeBiCGStab, TypeGMRES, TypeTFQMR} {
		run(t, 3, func(c *comm.Comm) {
			a := distMat(c, global)
			k := New(c)
			k.SetOperators(a)
			if err := k.SetType(method); err != nil {
				t.Fatal(err)
			}
			if err := k.SetPCType(PCJacobi); err != nil {
				t.Fatal(err)
			}
			k.SetTolerances(1e-11, 0, 0, 2000)
			solveAndCheck(t, c, global, k, a, 1e-8)
		})
	}
}

func TestPreconditioningReducesIterations(t *testing.T) {
	global := sparse.Laplace2D(10, 10)
	run(t, 1, func(c *comm.Comm) {
		iters := make(map[string]int)
		for _, pc := range []string{PCNone, PCILU} {
			a := distMat(c, global)
			k := New(c)
			k.SetOperators(a)
			k.SetType(TypeCG)
			k.SetPCType(pc)
			k.SetTolerances(1e-10, 0, 0, 5000)
			solveAndCheck(t, c, global, k, a, 1e-6)
			iters[pc] = k.Iterations()
		}
		if iters[PCILU] >= iters[PCNone] {
			t.Errorf("ILU(0) (%d its) did not beat unpreconditioned CG (%d its)", iters[PCILU], iters[PCNone])
		}
	})
}

func TestShellMatrixMatchesAssembled(t *testing.T) {
	global := sparse.Laplace2D(6, 6)
	run(t, 2, func(c *comm.Comm) {
		assembled := distMat(c, global)
		// Matrix-free operator backed by the same distributed matrix, the
		// shape of the paper's MatrixFree port.
		shell := NewShellMat(assembled.Layout(), func(y, x []float64) {
			assembled.Assembled().Apply(y, x)
		})
		solve := func(a *Mat) []float64 {
			k := New(c)
			k.SetOperators(a)
			k.SetType(TypeGMRES)
			k.SetPCType(PCNone) // shell has no diagonal access
			k.SetTolerances(1e-12, 0, 0, 2000)
			l := a.Layout()
			b := make([]float64, l.LocalN)
			for i := range b {
				b[i] = 1
			}
			x := make([]float64, l.LocalN)
			if err := k.Solve(b, x); err != nil {
				t.Fatal(err)
			}
			return x
		}
		xa := solve(assembled)
		xs := solve(shell)
		for i := range xa {
			if math.Abs(xa[i]-xs[i]) > 1e-8 {
				t.Fatalf("shell and assembled solutions differ at %d: %g vs %g", i, xa[i], xs[i])
			}
		}
	})
}

func TestShellRejectsDiagonalPCs(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		l, _ := pmat.EvenLayout(c, 4)
		shell := NewShellMat(l, func(y, x []float64) { copy(y, x) })
		k := New(c)
		k.SetOperators(shell)
		k.SetType(TypeGMRES)
		k.SetPCType(PCJacobi)
		b := []float64{1, 1, 1, 1}
		x := make([]float64, 4)
		if err := k.Solve(b, x); err == nil {
			t.Error("jacobi on a shell matrix did not error")
		}
	})
}

func TestSolveErrors(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		k := New(c)
		if err := k.Solve([]float64{1}, []float64{0}); err == nil {
			t.Error("Solve before SetOperators did not error")
		}
		a := distMat(c, sparse.Identity(4))
		k.SetOperators(a)
		if err := k.Solve([]float64{1}, []float64{0}); err == nil {
			t.Error("mismatched vector lengths did not error")
		}
		if err := k.SetType("nonsense"); err == nil {
			t.Error("unknown KSP type accepted")
		}
		if err := k.SetPCType("nonsense"); err == nil {
			t.Error("unknown PC type accepted")
		}
		if err := k.SetRestart(0); err == nil {
			t.Error("restart 0 accepted")
		}
		if err := k.SetDamping(-1); err == nil {
			t.Error("negative damping accepted")
		}
	})
}

// skew2 is the 2×2 skew-symmetric [0 1; −1 0]: r·A·r = 0 for every r,
// so CG's first p·q and BiCGSTAB's first r̂·v are exactly zero.
func skew2() *sparse.CSR {
	coo := sparse.NewCOO(2, 2)
	coo.Append(0, 1, 1)
	coo.Append(1, 0, -1)
	return coo.ToCSR()
}

// fnvBits is FNV-1a over the bits of vs.
func fnvBits(vs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vs {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// TestMaxIterationsDiverges pins every exit of the Krylov methods, one
// row each, and every method on a pooled row: iterations, reason, the
// bits of ResidualNorm, hashes of the recorder's residual trace and of
// x, and the world's collectives during Solve. The CG and BiCGSTAB
// literals were recorded at 5532273, while ksp still ran its own two
// loops, the other pooled rows at ccb097c, and the other GMRES, FGMRES
// and TFQMR rows and every collective count at 5acfcdd, while ksp still
// ran its own GMRES restart loop and TFQMR; each count is one higher
// since the preconditioner set-up ends in pmat.Agree. gmres/restart
// pins a stop one iteration past a restart. The pooled rows attach a 2-worker pool
// to a 2,500-row block, so every reduction folds two of par's
// 2,048-entry slots: a reduction that bypasses the pool's fold moves
// their bits.
func TestMaxIterationsDiverges(t *testing.T) {
	scaled := func(f float64) func(*sparse.CSR) []float64 {
		return func(a *sparse.CSR) []float64 {
			b := make([]float64, a.Rows)
			for i := range b {
				b[i] = f
			}
			return b
		}
	}
	manufactured := func(a *sparse.CSR) []float64 {
		b := make([]float64, a.Rows)
		a.MulVec(b, sparse.RandomVector(a.Rows, 99))
		return b
	}
	lap := func(n int) func() *sparse.CSR { return func() *sparse.CSR { return sparse.Laplace2D(n, n) } }
	ident := func() *sparse.CSR { return sparse.Identity(16) }
	type want struct {
		its         int
		reason      ConvergedReason
		rnorm       uint64 // bits of ResidualNorm
		trace, xsum uint64
		colls       int64 // the world's collectives during Solve
	}
	for _, tc := range []struct {
		name    string
		global  func() *sparse.CSR
		rhs     func(*sparse.CSR) []float64
		method  string
		pc      string
		rtol    float64
		maxIts  int
		workers int // 0: no pool
		restart int // 0: the default
		want    want
	}{
		{"cg/converged", lap(6), manufactured, TypeCG, PCJacobi, 1e-10, 2000, 0, 0, want{19, ConvergedRTol, 0x3c895dfaba6e49ca, 0x1819dae2810fb3f8, 0x2a82b70102e26656, 40}},
		{"cg/max-its", lap(12), scaled(1), TypeCG, PCNone, 1e-14, 3, 0, 0, want{3, DivergedMaxIts, 0x402b1871f3093a8a, 0x846faf6003f730c, 0x954e9269793231b5, 8}},
		{"cg/indefinite", skew2, scaled(1), TypeCG, PCNone, 1e-10, 2000, 0, 0, want{1, DivergedIndefinitePC, 0x3ff6a09e667f3bcd, 0x9a5b8318b7fef7a9, 0x88201fb960ff6465, 3}},
		{"cg/non-finite", lap(6), scaled(1e300), TypeCG, PCNone, 1e-10, 2000, 0, 0, want{0, DivergedBreakdown, 0x7ff0000000000000, 0xaab1293229b9b0f8, 0x66e368127e9e89a5, 2}},
		{"cg/pooled", lap(50), manufactured, TypeCG, PCJacobi, 1e-10, 2000, 2, 0, want{164, ConvergedRTol, 0x3e4abeea84ede2c1, 0x45fd62b3b1f80ce4, 0xd7b51cc27507380, 330}},
		{"bcgs/converged", lap(6), manufactured, TypeBiCGStab, PCJacobi, 1e-10, 2000, 0, 0, want{16, ConvergedRTol, 0x3e1045e2ab99ca5e, 0xac2c104250e6c005, 0xb3088013b4a140d, 64}},
		{"bcgs/max-its", lap(12), scaled(1), TypeBiCGStab, PCNone, 1e-14, 3, 0, 0, want{3, DivergedMaxIts, 0x4012f71fcf222914, 0x2eaf755a47e22760, 0x8b622665b6d20b87, 14}},
		{"bcgs/breakdown", skew2, scaled(1), TypeBiCGStab, PCNone, 1e-10, 2000, 0, 0, want{1, DivergedBreakdown, 0x3ff6a09e667f3bcd, 0x9a5b8318b7fef7a9, 0x88201fb960ff6465, 3}},
		{"bcgs/half-step", ident, manufactured, TypeBiCGStab, PCNone, 1e-10, 2000, 0, 0, want{1, ConvergedATol, 0x0, 0x8a02afae18ffa6c8, 0x43411cb02aa2b404, 4}},
		{"bcgs/non-finite", lap(6), scaled(1e300), TypeBiCGStab, PCNone, 1e-10, 2000, 0, 0, want{0, DivergedBreakdown, 0x7ff0000000000000, 0xaab1293229b9b0f8, 0x66e368127e9e89a5, 2}},
		{"bcgs/pooled", lap(50), manufactured, TypeBiCGStab, PCJacobi, 1e-10, 2000, 2, 0, want{123, ConvergedRTol, 0x3e46a47719fea180, 0x86f7e1ab88266988, 0xf520f73db72170d9, 492}},
		{"gmres/max-its", lap(12), scaled(1), TypeGMRES, PCNone, 1e-14, 3, 0, 0, want{3, DivergedMaxIts, 0x401cbf112389f13f, 0xd7a143415119e61e, 0x634a2c61f8cda6dd, 11}},
		{"gmres/restart", lap(12), scaled(1), TypeGMRES, PCNone, 1e-14, 3, 0, 2, want{3, DivergedMaxIts, 0x401ee3a23689d9f4, 0x98558c97219b9dc1, 0x150f0f2bd3f212d5, 10}},
		{"gmres/skew2", skew2, scaled(1), TypeGMRES, PCNone, 1e-10, 2000, 0, 0, want{2, ConvergedRTol, 0x3cb0000000000001, 0x516e10b0c3eda908, 0x86374bf81f998f05, 7}},
		{"gmres/non-finite", lap(6), scaled(1e300), TypeGMRES, PCNone, 1e-10, 2000, 0, 0, want{0, DivergedBreakdown, 0x7ff0000000000000, 0xaab1293229b9b0f8, 0x66e368127e9e89a5, 2}},
		{"fgmres/max-its", lap(12), scaled(1), TypeFGMRES, PCNone, 1e-14, 3, 0, 0, want{3, DivergedMaxIts, 0x401cbf112389f13f, 0xd7a143415119e61e, 0x634a2c61f8cda6dd, 11}},
		{"fgmres/skew2", skew2, scaled(1), TypeFGMRES, PCNone, 1e-10, 2000, 0, 0, want{2, ConvergedRTol, 0x3cb0000000000001, 0x516e10b0c3eda908, 0x86374bf81f998f05, 7}},
		{"fgmres/non-finite", lap(6), scaled(1e300), TypeFGMRES, PCNone, 1e-10, 2000, 0, 0, want{0, DivergedBreakdown, 0x7ff0000000000000, 0xaab1293229b9b0f8, 0x66e368127e9e89a5, 2}},
		{"tfqmr/max-its", lap(12), scaled(1), TypeTFQMR, PCNone, 1e-14, 3, 0, 0, want{3, DivergedMaxIts, 0x4038ad17a0483da7, 0xb25721a0c81ea6d, 0x9ee14b13f9b0884d, 12}},
		{"tfqmr/breakdown", skew2, scaled(1), TypeTFQMR, PCNone, 1e-10, 2000, 0, 0, want{1, DivergedBreakdown, 0x3ff6a09e667f3bcd, 0x9a5b8318b7fef7a9, 0x88201fb960ff6465, 3}},
		{"tfqmr/non-finite", lap(6), scaled(1e300), TypeTFQMR, PCNone, 1e-10, 2000, 0, 0, want{0, DivergedBreakdown, 0x7ff0000000000000, 0xaab1293229b9b0f8, 0x66e368127e9e89a5, 2}},
		{"gmres/pooled", lap(50), manufactured, TypeGMRES, PCJacobi, 1e-10, 2000, 2, 0, want{329, ConvergedRTol, 0x3e2aff574b3ad70f, 0x7256887e7cfe3d90, 0xf8abb484aca92c5f, 5426}},
		{"fgmres/pooled", lap(50), manufactured, TypeFGMRES, PCJacobi, 1e-10, 2000, 2, 0, want{329, ConvergedRTol, 0x3e4aff574b3ad70f, 0x4207e83aabcd37dd, 0xf8abb484aca92c5f, 5426}},
		{"tfqmr/pooled", lap(50), manufactured, TypeTFQMR, PCJacobi, 1e-10, 2000, 2, 0, want{120, ConvergedRTol, 0x3e2ab70774135b53, 0x1ae7f4c34e11d3c8, 0xd423eaa3d5f8cd53, 480}},
		{"chebyshev/pooled", lap(50), manufactured, TypeChebyshev, PCJacobi, 1e-10, 2000, 2, 0, want{2000, DivergedMaxIts, 0x3e82917109d07f11, 0xbddab860da8873ba, 0x82bdd78398f4c077, 2022}},
		{"richardson/pooled", lap(50), manufactured, TypeRichardson, PCJacobi, 1e-10, 2000, 2, 0, want{2000, DivergedMaxIts, 0x3fc4596cf608cbcf, 0x4ca118a7cfb0083b, 0x86b4c03d21812a08, 2002}},
	} {
		global := tc.global()
		bGlobal := tc.rhs(global)
		w, err := comm.NewWorld(1)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *comm.Comm) {
			a := distMat(c, global)
			k := New(c)
			k.SetOperators(a)
			if err := k.SetType(tc.method); err != nil {
				t.Fatal(err)
			}
			if err := k.SetPCType(tc.pc); err != nil {
				t.Fatal(err)
			}
			if tc.restart > 0 {
				if err := k.SetRestart(tc.restart); err != nil {
					t.Fatal(err)
				}
			}
			if tc.workers > 0 {
				pool := par.New(tc.workers)
				defer pool.Close()
				k.SetPool(pool)
			}
			k.SetTolerances(tc.rtol, 1e-300, 0, tc.maxIts)
			rec := telemetry.New()
			k.SetRecorder(rec)
			x := make([]float64, len(bGlobal))
			before := w.Stats().Collectives
			err := k.Solve(bGlobal, x)
			colls := w.Stats().Collectives - before
			if converged := k.Reason().Converged(); converged != (err == nil) {
				t.Errorf("%s: reason %v with error %v", tc.name, k.Reason(), err)
			} else if err != nil && !strings.Contains(err.Error(), "diverged") {
				t.Errorf("%s: error %q does not mention divergence", tc.name, err)
			}
			var trace []float64
			for _, p := range rec.Snapshot().Residuals {
				trace = append(trace, p.Residual)
			}
			got := want{k.Iterations(), k.Reason(), math.Float64bits(k.ResidualNorm()), fnvBits(trace), fnvBits(x), colls}
			if got != tc.want {
				t.Errorf("%s: got %#v, recorded %#v", tc.name, got, tc.want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestJacobiZeroDiagonalFails(t *testing.T) {
	// Matrix with a zero diagonal entry.
	coo := sparse.NewCOO(3, 3)
	coo.Append(0, 0, 1)
	coo.Append(1, 2, 1) // row 1 has no diagonal
	coo.Append(1, 1, 0)
	coo.Append(2, 2, 1)
	global := coo.ToCSR()
	run(t, 1, func(c *comm.Comm) {
		a := distMat(c, global)
		k := New(c)
		k.SetOperators(a)
		k.SetPCType(PCJacobi)
		b := []float64{1, 1, 1}
		x := make([]float64, 3)
		if err := k.Solve(b, x); err == nil {
			t.Error("zero diagonal accepted by jacobi")
		}
	})
}

func TestILU0ExactOnTridiagonal(t *testing.T) {
	// Tridiagonal matrices have no fill, so ILU(0) is an exact LU.
	a := sparse.Tridiag(20, -1, 2.5, -1)
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	xstar := sparse.RandomVector(20, 8)
	b := make([]float64, 20)
	a.MulVec(b, xstar)
	z := make([]float64, 20)
	f.Solve(z, b)
	for i := range z {
		if math.Abs(z[i]-xstar[i]) > 1e-12 {
			t.Fatalf("ILU0 solve not exact at %d: %g vs %g", i, z[i], xstar[i])
		}
	}
}

func TestILU0Errors(t *testing.T) {
	if _, err := NewILU0(sparse.Tridiag(3, 1, 0, 1)); err == nil {
		t.Error("zero pivot accepted")
	}
	rect := sparse.NewCOO(2, 3)
	rect.Append(0, 0, 1)
	if _, err := NewILU0(rect.ToCSR()); err == nil {
		t.Error("rectangular matrix accepted")
	}
	noDiag := sparse.NewCOO(2, 2)
	noDiag.Append(0, 1, 1)
	noDiag.Append(1, 0, 1)
	if _, err := NewILU0(noDiag.ToCSR()); err == nil {
		t.Error("missing structural diagonal accepted")
	}
}

// TestMonitorCalled: the per-iteration monitor is the telemetry residual
// trace — one point per convergence test, the initial residual included.
func TestMonitorCalled(t *testing.T) {
	global := sparse.Laplace2D(4, 4)
	run(t, 1, func(c *comm.Comm) {
		a := distMat(c, global)
		k := New(c)
		k.SetOperators(a)
		k.SetType(TypeCG)
		k.SetPCType(PCNone)
		rec := telemetry.New()
		k.SetRecorder(rec)
		l := a.Layout()
		b := make([]float64, l.LocalN)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, l.LocalN)
		if err := k.Solve(b, x); err != nil {
			t.Fatal(err)
		}
		trace := rec.Snapshot().Residuals
		if len(trace) != k.Iterations()+1 {
			t.Errorf("%d residual points for %d iterations", len(trace), k.Iterations())
		}
		for i := 1; i < len(trace); i++ {
			if trace[i].Residual > trace[i-1].Residual*10 {
				t.Error("CG residuals exploded")
			}
		}
	})
}

func TestOptionsRoundTrip(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		k := New(c)
		set := map[string]string{
			"ksp_type":             "cg",
			"pc_type":              "jacobi",
			"ksp_rtol":             "1e-09",
			"ksp_atol":             "1e-30",
			"ksp_max_it":           "123",
			"ksp_gmres_restart":    "17",
			"ksp_richardson_scale": "0.5",
		}
		for key, v := range set {
			if err := k.SetOption(key, v); err != nil {
				t.Fatalf("SetOption(%s,%s): %v", key, v, err)
			}
		}
		if _, jacobi := k.pc.(*pcJacobi); k.typ != TypeCG || !jacobi {
			t.Errorf("types not set: %s/%T", k.typ, k.pc)
		}
		if k.rtol != 1e-9 || k.atol != 1e-30 || k.damping != 0.5 {
			t.Errorf("floats not set: %g %g %g", k.rtol, k.atol, k.damping)
		}
		if k.maxIts != 123 || k.restart != 17 {
			t.Errorf("ints not set: %d %d", k.maxIts, k.restart)
		}
		for _, bad := range [][2]string{
			{"ksp_rtol", "x"}, {"ksp_rtol", "-1"}, {"ksp_max_it", "0"},
			{"unknown_key", "1"}, {"ksp_dtol", "100000"},
			{"ksp_initial_guess_nonzero", "true"},
			{"ksp_gmres_restart", "zero"}, {"ksp_richardson_scale", "bad"},
			{"ksp_atol", "nope"},
		} {
			if err := k.SetOption(bad[0], bad[1]); err == nil {
				t.Errorf("SetOption(%s,%s) accepted", bad[0], bad[1])
			}
		}
	})
}

func TestConvergedReasonStrings(t *testing.T) {
	for r, frag := range map[ConvergedReason]string{
		ConvergedRTol:        "relative",
		ConvergedATol:        "absolute",
		ConvergedIts:         "iteration",
		DivergedMaxIts:       "maximum",
		DivergedDTol:         "divergence",
		DivergedBreakdown:    "breakdown",
		DivergedIndefinitePC: "indefinite",
		DivergedNull:         "not yet",
	} {
		if !strings.Contains(r.String(), frag) {
			t.Errorf("%d: String %q missing %q", int(r), r.String(), frag)
		}
	}
	if !ConvergedRTol.Converged() || DivergedMaxIts.Converged() {
		t.Error("Converged() predicate wrong")
	}
}

func TestIterationCountsGrowWithProblemSize(t *testing.T) {
	// The shape behind Table 1's iteration column: fixed tolerance, larger
	// grids take more iterations.
	prev := 0
	for _, nx := range []int{6, 12, 24} {
		global := sparse.Laplace2D(nx, nx)
		var its int
		run(t, 1, func(c *comm.Comm) {
			a := distMat(c, global)
			k := New(c)
			k.SetOperators(a)
			k.SetType(TypeCG)
			k.SetPCType(PCNone)
			k.SetTolerances(1e-8, 0, 0, 10000)
			solveAndCheck(t, c, global, k, a, 1e-5)
			its = k.Iterations()
		})
		if its <= prev {
			t.Errorf("iterations did not grow: %d after %d", its, prev)
		}
		prev = its
	}
}

func TestFGMRESAndChebyshev(t *testing.T) {
	global := sparse.Laplace2D(8, 8)
	for _, method := range []string{TypeFGMRES, TypeChebyshev} {
		for _, p := range []int{1, 2} {
			run(t, p, func(c *comm.Comm) {
				a := distMat(c, global)
				k := New(c)
				k.SetOperators(a)
				if err := k.SetType(method); err != nil {
					t.Fatal(err)
				}
				if err := k.SetPCType(PCJacobi); err != nil {
					t.Fatal(err)
				}
				k.SetTolerances(1e-9, 0, 0, 20000)
				solveAndCheck(t, c, global, k, a, 1e-6)
			})
		}
	}
}

func TestFGMRESWithVariablePreconditioner(t *testing.T) {
	// FGMRES tolerates a preconditioner that changes between iterations;
	// here an inner Richardson solve with an iteration-dependent sweep
	// count (the classic flexible-preconditioning scenario).
	global := sparse.Laplace2D(7, 7)
	run(t, 1, func(c *comm.Comm) {
		a := distMat(c, global)
		k := New(c)
		k.SetOperators(a)
		if err := k.SetType(TypeFGMRES); err != nil {
			t.Fatal(err)
		}
		k.SetPC(&variablePC{a: a})
		k.SetTolerances(1e-10, 0, 0, 5000)
		solveAndCheck(t, c, global, k, a, 1e-6)
	})
}

// variablePC applies a different number of Jacobi sweeps each call.
type variablePC struct {
	a     *Mat
	calls int
}

func (p *variablePC) Type() string       { return "variable" }
func (p *variablePC) SetUp(a *Mat) error { return nil }
func (p *variablePC) Apply(z, r []float64) {
	p.calls++
	d, _ := p.a.Diagonal()
	sweeps := 1 + p.calls%3
	for i := range z {
		z[i] = 0
	}
	t := make([]float64, len(z))
	for s := 0; s < sweeps; s++ {
		p.a.Apply(t, z)
		for i := range z {
			z[i] += 0.8 * (r[i] - t[i]) / d[i]
		}
	}
}

func TestDivergenceToleranceDetected(t *testing.T) {
	// Richardson with over-relaxation on an SPD system diverges; the
	// dtol test must catch it rather than looping to maxits.
	global := sparse.Laplace2D(6, 6)
	run(t, 1, func(c *comm.Comm) {
		a := distMat(c, global)
		k := New(c)
		k.SetOperators(a)
		if err := k.SetType(TypeRichardson); err != nil {
			t.Fatal(err)
		}
		k.SetPCType(PCNone)
		if err := k.SetDamping(2.5); err != nil { // far beyond stability
			t.Fatal(err)
		}
		k.SetTolerances(1e-10, 0, 1e4, 100000)
		l := a.Layout()
		b := make([]float64, l.LocalN)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, l.LocalN)
		if err := k.Solve(b, x); err == nil {
			t.Fatal("divergent iteration accepted")
		}
		if k.Reason() != DivergedDTol {
			t.Errorf("reason = %v, want DivergedDTol", k.Reason())
		}
		if k.Iterations() > 1000 {
			t.Errorf("divergence detected only after %d iterations", k.Iterations())
		}
	})
}
