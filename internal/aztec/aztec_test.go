package aztec

import (
	"math"
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

// evenMap distributes n rows over the ranks as evenly as they divide.
func evenMap(c *comm.Comm, n int) (*Map, error) {
	l, err := pmat.EvenLayout(c, n)
	if err != nil {
		return nil, err
	}
	return NewMapWithLocal(c, l.LocalN)
}

// buildCrs distributes a globally known CSR into a CrsMatrix via the
// Epetra-style assembly API.
func buildCrs(c *comm.Comm, global *sparse.CSR) *CrsMatrix {
	m, err := evenMap(c, global.Rows)
	if err != nil {
		panic(err)
	}
	a := NewCrsMatrix(m)
	for g := m.MinMyGID(); g < m.MinMyGID()+m.NumMyElements(); g++ {
		cols, vals := global.RowView(g)
		if err := a.InsertGlobalValues(g, cols, vals); err != nil {
			panic(err)
		}
	}
	if err := a.FillComplete(); err != nil {
		panic(err)
	}
	return a
}

func TestMapBasics(t *testing.T) {
	run(t, 3, func(c *comm.Comm) {
		m, err := evenMap(c, 10)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumGlobalElements() != 10 {
			t.Errorf("global = %d", m.NumGlobalElements())
		}
		sum := c.AllReduceInt(m.NumMyElements(), comm.OpSum)
		if sum != 10 {
			t.Errorf("local sizes sum to %d", sum)
		}
		if !m.MyGID(m.MinMyGID()) || m.MyGID(m.MinMyGID()+m.NumMyElements()) {
			t.Error("MyGID inconsistent with MinMyGID/NumMyElements")
		}
		ml, err := NewMapWithLocal(c, c.Rank()+1)
		if err != nil {
			t.Fatal(err)
		}
		if ml.NumGlobalElements() != 6 {
			t.Errorf("local map global = %d", ml.NumGlobalElements())
		}
	})
}

func TestCrsMatrixAssemblyAndApply(t *testing.T) {
	global := sparse.Laplace2D(5, 4)
	x := sparse.RandomVector(20, 2)
	want := make([]float64, 20)
	global.MulVec(want, x)
	run(t, 2, func(c *comm.Comm) {
		a := buildCrs(c, global)
		l := a.RowMap().Layout()
		xl := make([]float64, l.LocalN)
		copy(xl, x[l.Start:l.Start+l.LocalN])
		yl := make([]float64, l.LocalN)
		if err := a.Apply(yl, xl); err != nil {
			t.Fatal(err)
		}
		for i := range yl {
			if math.Abs(yl[i]-want[l.Start+i]) > 1e-12 {
				t.Fatalf("Apply[%d] = %v, want %v", i, yl[i], want[l.Start+i])
			}
		}
		// Row extraction matches the source matrix.
		g := a.RowMap().MinMyGID()
		cols, vals, err := a.ExtractGlobalRowCopy(g)
		if err != nil {
			t.Fatal(err)
		}
		for k, j := range cols {
			if global.At(g, j) != vals[k] {
				t.Errorf("row %d col %d: %v != %v", g, j, vals[k], global.At(g, j))
			}
		}
		d, err := a.ExtractDiagonalCopy()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range d {
			if v != 4 {
				t.Errorf("diag[%d] = %v", i, v)
			}
		}
	})
}

func TestCrsMatrixAPIErrors(t *testing.T) {
	run(t, 2, func(c *comm.Comm) {
		m, _ := evenMap(c, 6)
		a := NewCrsMatrix(m)
		notMine := (m.MinMyGID() + 3) % 6
		if m.MyGID(notMine) {
			notMine = (notMine + 1) % 6
		}
		if err := a.InsertGlobalValues(notMine, []int{0}, []float64{1}); err == nil {
			t.Error("insert into unowned row accepted")
		}
		if err := a.InsertGlobalValues(m.MinMyGID(), []int{0, 1}, []float64{1}); err == nil {
			t.Error("mismatched cols/vals accepted")
		}
		if err := a.InsertGlobalValues(m.MinMyGID(), []int{99}, []float64{1}); err == nil {
			t.Error("out-of-range column accepted")
		}
		y := make([]float64, m.NumMyElements())
		if err := a.Apply(y, y); err == nil {
			t.Error("Apply before FillComplete accepted")
		}
		if _, _, err := a.ExtractGlobalRowCopy(m.MinMyGID()); err == nil {
			t.Error("row extraction before FillComplete accepted")
		}
		// Make every row diagonal so FillComplete succeeds everywhere.
		for g := m.MinMyGID(); g < m.MinMyGID()+m.NumMyElements(); g++ {
			if err := a.InsertGlobalValues(g, []int{g}, []float64{1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.FillComplete(); err != nil {
			t.Fatal(err)
		}
		if err := a.FillComplete(); err == nil {
			t.Error("second FillComplete accepted")
		}
		if err := a.InsertGlobalValues(m.MinMyGID(), []int{0}, []float64{1}); err == nil {
			t.Error("insert after FillComplete accepted")
		}
	})
}

func solveWith(t *testing.T, c *comm.Comm, global *sparse.CSR, cfg func(s *Solver)) ([]float64, *Solver) {
	t.Helper()
	a := buildCrs(c, global)
	l := a.RowMap().Layout()
	n := global.Rows
	xstar := sparse.RandomVector(n, 31)
	bg := make([]float64, n)
	global.MulVec(bg, xstar)
	b := make([]float64, l.LocalN)
	copy(b, bg[l.Start:l.Start+l.LocalN])
	s := NewSolver(c)
	s.SetUserMatrix(a)
	cfg(s)
	x := make([]float64, l.LocalN)
	if err := s.Solve(x, b); err != nil {
		t.Fatalf("aztec solve: %v", err)
	}
	// Verify against the true solution blocks.
	for i := range x {
		if math.Abs(x[i]-xstar[l.Start+i]) > 1e-5 {
			t.Fatalf("solution off at %d: %v vs %v", i, x[i], xstar[l.Start+i])
		}
	}
	return x, s
}

func TestAllSolversSPD(t *testing.T) {
	global := sparse.Laplace2D(7, 7)
	for _, solver := range []int{AZCG, AZGMRES, AZCGS, AZBiCGStab} {
		for _, p := range []int{1, 3} {
			run(t, p, func(c *comm.Comm) {
				_, s := solveWith(t, c, global, func(s *Solver) {
					s.Options()[AZSolver] = solver
					s.Options()[AZPrecond] = AZDomDecomp
					s.Options()[AZMaxIter] = 2000
					s.Params()[AZTol] = 1e-10
				})
				if int(s.Status()[AZWhy]) != AZNormal {
					t.Errorf("solver %d: why = %v", solver, s.Status()[AZWhy])
				}
				if s.NumIters() < 1 {
					t.Errorf("solver %d: no iterations recorded", solver)
				}
			})
		}
	}
}

func TestAllPreconditioners(t *testing.T) {
	global := sparse.Laplace2D(6, 6)
	for _, prec := range []int{AZNone, AZJacobi, AZNeumann, AZLs, AZSymGS, AZDomDecomp} {
		run(t, 2, func(c *comm.Comm) {
			solveWith(t, c, global, func(s *Solver) {
				s.Options()[AZSolver] = AZGMRES
				s.Options()[AZPrecond] = prec
				s.Options()[AZMaxIter] = 3000
				s.Params()[AZTol] = 1e-10
			})
		})
	}
}

func TestRowSumScaling(t *testing.T) {
	// Badly row-scaled system; AZRowSum restores balance.
	global := sparse.Tridiag(40, -1, 4, -1).Clone()
	rowScale := make([]float64, 40)
	for i := range rowScale {
		rowScale[i] = math.Pow(10, float64(i%8-4))
	}
	global.ScaleRows(rowScale)
	run(t, 2, func(c *comm.Comm) {
		solveWith(t, c, global, func(s *Solver) {
			s.Options()[AZSolver] = AZGMRES
			s.Options()[AZPrecond] = AZDomDecomp
			s.Options()[AZScaling] = AZRowSum
			s.Options()[AZConv] = AZrhs
			s.Options()[AZMaxIter] = 2000
			s.Params()[AZTol] = 1e-12
		})
	})
}

// TestRowSumScaleFoldOrder pins AZRowSum's fold order: the row 1, 1,
// 1e16 sums to 1e16+2 left to right but to 1e16 in any order that adds
// 1e16 before the second 1, so a fold in map order gives row 0 a
// different scale factor on some call.
func TestRowSumScaleFoldOrder(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	coo.Append(0, 0, 1)
	coo.Append(0, 1, 1)
	coo.Append(0, 2, 1e16)
	coo.Append(1, 1, 1)
	coo.Append(2, 2, 1)
	global := coo.ToCSR()
	want := 1 / (1e16 + 2.0)
	run(t, 1, func(c *comm.Comm) {
		a := buildCrs(c, global)
		for call := 0; call < 100; call++ {
			scale, err := rowSumScale(a)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(scale[0]) != math.Float64bits(want) {
				t.Fatalf("call %d: row 0 scale %x, want %x (1/(1e16+2))", call, math.Float64bits(scale[0]), math.Float64bits(want))
			}
		}
	})
}

func TestConvergenceCriteria(t *testing.T) {
	global := sparse.Laplace2D(5, 5)
	for _, conv := range []int{AZr0, AZrhs, AZAnorm} {
		run(t, 1, func(c *comm.Comm) {
			solveWith(t, c, global, func(s *Solver) {
				s.Options()[AZConv] = conv
				s.Options()[AZMaxIter] = 2000
				s.Params()[AZTol] = 1e-9
			})
		})
	}
}

func TestMatrixFreeOperator(t *testing.T) {
	global := sparse.Laplace2D(5, 5)
	run(t, 2, func(c *comm.Comm) {
		// Assemble once to use as the underlying application "physics".
		assembled := buildCrs(c, global)
		m := assembled.RowMap()
		op := &funcOperator{m: m, f: func(y, x []float64) error {
			return assembled.Apply(y, x)
		}}
		s := NewSolver(c)
		s.SetUserOperator(op)
		s.Options()[AZSolver] = AZGMRES
		s.Options()[AZPrecond] = AZNone
		l := m.Layout()
		b := make([]float64, l.LocalN)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, l.LocalN)
		if err := s.Iterate(x, b, 2000, 1e-10); err != nil {
			t.Fatal(err)
		}
		// Matrix-free + any real preconditioner must be rejected.
		s2 := NewSolver(c)
		s2.SetUserOperator(op)
		s2.Options()[AZPrecond] = AZDomDecomp
		if err := s2.Iterate(x, b, 100, 1e-8); err == nil {
			t.Error("preconditioner on matrix-free operator accepted")
		}
	})
}

type funcOperator struct {
	m *Map
	f func(y, x []float64) error
}

func (o *funcOperator) RowMap() *Map               { return o.m }
func (o *funcOperator) Apply(y, x []float64) error { return o.f(y, x) }

func TestSolverValidation(t *testing.T) {
	run(t, 1, func(c *comm.Comm) {
		s := NewSolver(c)
		if err := s.Solve(nil, nil); err == nil {
			t.Error("solve without matrix accepted")
		}
		global := sparse.Identity(4)
		a := buildCrs(c, global)
		s.SetUserMatrix(a)
		if err := s.Solve(make([]float64, 1), make([]float64, 4)); err == nil {
			t.Error("wrong local vector length accepted")
		}
		s.Options()[AZSolver] = 99
		x := make([]float64, 4)
		b := []float64{1, 1, 1, 1}
		if err := s.Solve(x, b); err == nil {
			t.Error("unknown solver accepted")
		}
		s.Options()[AZSolver] = AZCG
		s.Options()[AZMaxIter] = 0
		if err := s.Solve(x, b); err == nil {
			t.Error("non-positive max iterations accepted")
		}
		s.Options()[AZMaxIter] = 10
		s.Params()[AZTol] = -1
		if err := s.Solve(x, b); err == nil {
			t.Error("negative tolerance accepted")
		}
	})
}

// fnvBits is FNV-1a over the bits of vs.
func fnvBits(vs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vs {
		b := math.Float64bits(v)
		for sh := 0; sh < 64; sh += 8 {
			h ^= (b >> sh) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// TestMaxItersReported pins every exit of every method, one row each,
// and each method on a pooled row: iterations, AZWhy, the bits of AZr
// and AZScaledR (a NaN as 0x7ff8000000000000 whatever its sign and
// payload), hashes of the recorder's residual trace and of x, and the
// world's collectives during Iterate. The CG and BiCGSTAB literals were
// recorded at 5532273, while aztec still ran its own two loops, the
// pooled GMRES and CGS rows at ccb097c, and the other GMRES and CGS rows
// and every collective count at 5acfcdd, while aztec still ran its own
// GMRES restart loop and CGS; gmres/kspace pins the restart that
// retests the recomputed residual after a cycle stopped on its
// estimate. Only cgs/max-its and cgs/breakdown have moved since: their
// exits now report the norm the loop holds instead of reducing it
// again, one collective fewer (6 → 5 and 3 → 2); and every count is one
// higher since the preconditioner set-up ends in pmat.Agree. The pooled
// rows attach a 2-worker pool to a 2,500-row block, so every reduction
// folds two of par's 2,048-entry slots: a reduction that bypasses the
// pool's fold moves their bits.
func TestMaxItersReported(t *testing.T) {
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
	skew2 := func() *sparse.CSR {
		// r·A·r = 0 for every r: CG's p·q and BiCGSTAB's r̂·v are zero.
		coo := sparse.NewCOO(2, 2)
		coo.Append(0, 1, 1)
		coo.Append(1, 0, -1)
		return coo.ToCSR()
	}
	ident := func() *sparse.CSR { return sparse.Identity(16) }
	bits := func(v float64) uint64 {
		if math.IsNaN(v) {
			return 0x7ff8000000000000
		}
		return math.Float64bits(v)
	}
	type want struct {
		its, why    int
		r, scaled   uint64 // bits of AZr and AZScaledR
		trace, xsum uint64
		colls       int64 // the world's collectives during Iterate
	}
	for _, tc := range []struct {
		name            string
		global          func() *sparse.CSR
		rhs             func(*sparse.CSR) []float64
		solver, precond int
		tol             float64
		maxIter         int
		workers         int // 0: no pool
		kspace          int // AZKspace; 0: the default
		want            want
	}{
		{"cg/converged", lap(6), manufactured, AZCG, AZJacobi, 1e-10, 2000, 0, 0, want{13, AZNormal, 0x3de51ad8ae857506, 0x3da6c69ca1aee804, 0xc1bf0640dc0c66e0, 0xbc0738b45fdbc1b5, 28}},
		{"cg/max-its", lap(10), scaled(1), AZCG, AZNone, 1e-14, 2, 0, 0, want{2, AZMaxIts, 0x4025dfc7a438fc8e, 0x3ff17fd2e9c73072, 0xb6da2508e818de77, 0x35a901cc5b36902d, 6}},
		{"cg/breakdown", skew2, scaled(1), AZCG, AZNone, 1e-10, 2000, 0, 0, want{1, AZBreakdown, 0x3ff6a09e667f3bcd, 0x3ff0000000000000, 0xcbf29ce484222325, 0x88201fb960ff6465, 3}},
		{"cg/non-finite", lap(6), scaled(1e300), AZCG, AZNone, 1e-10, 2000, 0, 0, want{0, AZBreakdown, 0x7ff0000000000000, 0x7ff8000000000000, 0xcbf29ce484222325, 0x66e368127e9e89a5, 2}},
		{"cg/pooled", lap(50), manufactured, AZCG, AZJacobi, 1e-10, 2000, 2, 0, want{96, AZNormal, 0x3e44264d475b73f9, 0x3dd408936875fa2b, 0xa92149e359ec278d, 0xbc57d2f25e46f8d1, 194}},
		{"bicgstab/converged", lap(6), manufactured, AZBiCGStab, AZJacobi, 1e-10, 2000, 0, 0, want{9, AZNormal, 0x3e0b049475d73492, 0x3dcd28319e30af69, 0xd65cb98542178786, 0x65c076f7094cd425, 36}},
		{"bicgstab/max-its", lap(10), scaled(1), AZBiCGStab, AZNone, 1e-14, 2, 0, 0, want{2, AZMaxIts, 0x4012b9fd555fe98a, 0x3fddf66222330f43, 0xff9ac0126ab0e2c6, 0xab2870c918d04465, 10}},
		{"bicgstab/breakdown", skew2, scaled(1), AZBiCGStab, AZNone, 1e-10, 2000, 0, 0, want{1, AZBreakdown, 0x3ff6a09e667f3bcd, 0x3ff0000000000000, 0xcbf29ce484222325, 0x88201fb960ff6465, 3}},
		{"bicgstab/half-step", ident, manufactured, AZBiCGStab, AZNone, 1e-10, 2000, 0, 0, want{1, AZNormal, 0x0, 0x0, 0xcbf29ce484222325, 0x43411cb02aa2b404, 4}},
		{"bicgstab/non-finite", lap(6), scaled(1e300), AZBiCGStab, AZNone, 1e-10, 2000, 0, 0, want{0, AZBreakdown, 0x7ff0000000000000, 0x7ff8000000000000, 0xcbf29ce484222325, 0x66e368127e9e89a5, 2}},
		{"bicgstab/pooled", lap(50), manufactured, AZBiCGStab, AZJacobi, 1e-10, 2000, 2, 0, want{72, AZNormal, 0x3e469c95e30fc684, 0x3dd67b3a2e0b5d28, 0xf1f35e03239ece1, 0x94c5b9a91bddc329, 290}},
		{"gmres/max-its", lap(10), scaled(1), AZGMRES, AZNone, 1e-14, 2, 0, 0, want{2, AZMaxIts, 0x401a2bd9592e2ebf, 0x3fe4efe11424f232, 0x54aee940f701b4d5, 0x91ef1e3b04691103, 8}},
		{"gmres/kspace", lap(6), manufactured, AZGMRES, AZJacobi, 1e-10, 2000, 0, 2, want{38, AZNormal, 0x3df79d47ccf65058, 0x3dda22bc1dfa35a5, 0xeb9fd248375ea432, 0x365ab1bc4401966f, 116}},
		{"gmres/skew2", skew2, scaled(1), AZGMRES, AZNone, 1e-10, 2000, 0, 0, want{2, AZNormal, 0x3cb6a09e667f3bcd, 0x3cb0000000000000, 0xeafbe0fd3290295c, 0x86374bf81f998f05, 8}},
		{"gmres/non-finite", lap(6), scaled(1e300), AZGMRES, AZNone, 1e-10, 2000, 0, 0, want{0, AZBreakdown, 0x7ff0000000000000, 0x7ff8000000000000, 0xcbf29ce484222325, 0x66e368127e9e89a5, 2}},
		{"cgs/max-its", lap(10), scaled(1), AZCGS, AZNone, 1e-14, 2, 0, 0, want{2, AZMaxIts, 0x406436533e8a75a3, 0x40302b75cba1f7b6, 0xfa48e6e38809586f, 0xdc1f8a8b4e863cbd, 6}},
		{"cgs/breakdown", skew2, scaled(1), AZCGS, AZNone, 1e-10, 2000, 0, 0, want{1, AZBreakdown, 0x3ff6a09e667f3bcd, 0x3ff0000000000000, 0xcbf29ce484222325, 0x88201fb960ff6465, 3}},
		{"cgs/non-finite", lap(6), scaled(1e300), AZCGS, AZNone, 1e-10, 2000, 0, 0, want{0, AZBreakdown, 0x7ff0000000000000, 0x7ff8000000000000, 0xcbf29ce484222325, 0x66e368127e9e89a5, 2}},
		{"gmres/pooled", lap(50), manufactured, AZGMRES, AZJacobi, 1e-10, 2000, 2, 0, want{174, AZNormal, 0x3e2990a803574b53, 0x3ddb15ca8d1e94e7, 0xf08d87c99934d817, 0x93d67df3f111f27a, 2807}},
		{"cgs/pooled", lap(50), manufactured, AZCGS, AZJacobi, 1e-10, 2000, 2, 0, want{65, AZNormal, 0x3e48e5f408a1d808, 0x3dd8c138c0ca7067, 0x22830db70f5f8a7b, 0xdce0c6f0c7165a6, 132}},
	} {
		global := tc.global()
		b := tc.rhs(global)
		w, err := comm.NewWorld(1)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *comm.Comm) {
			s := NewSolver(c)
			s.SetUserMatrix(buildCrs(c, global))
			s.Options()[AZSolver] = tc.solver
			s.Options()[AZPrecond] = tc.precond
			if tc.kspace > 0 {
				s.Options()[AZKspace] = tc.kspace
			}
			if tc.workers > 0 {
				pool := par.New(tc.workers)
				defer pool.Close()
				s.SetPool(pool)
			}
			rec := telemetry.New()
			s.SetRecorder(rec)
			x := make([]float64, len(b))
			before := w.Stats().Collectives
			err := s.Iterate(x, b, tc.maxIter, tc.tol)
			colls := w.Stats().Collectives - before
			if normal := int(s.Status()[AZWhy]) == AZNormal; normal != (err == nil) {
				t.Errorf("%s: why %v with error %v", tc.name, s.Status()[AZWhy], err)
			}
			var trace []float64
			for _, p := range rec.Snapshot().Residuals {
				trace = append(trace, p.Residual)
			}
			st := s.Status()
			got := want{s.NumIters(), int(st[AZWhy]), bits(st[AZr]), bits(st[AZScaledR]), fnvBits(trace), fnvBits(x), colls}
			if got != tc.want {
				t.Errorf("%s: got %#v, recorded %#v", tc.name, got, tc.want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestILUTExactWithZeroDrop(t *testing.T) {
	// With no dropping and ample fill, ILUT is a complete LU for a
	// diagonally dominant matrix, so the solve is direct.
	a := sparse.RandomDiagDominant(30, 4, 11)
	f, err := NewILUT(a, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	xstar := sparse.RandomVector(30, 5)
	b := make([]float64, 30)
	a.MulVec(b, xstar)
	z := make([]float64, 30)
	f.Solve(z, b)
	for i := range z {
		if math.Abs(z[i]-xstar[i]) > 1e-8 {
			t.Fatalf("ILUT(0,∞) not exact at %d: err %g", i, math.Abs(z[i]-xstar[i]))
		}
	}
	if f.NNZ() < a.NNZ() {
		t.Errorf("full-fill ILUT has fewer entries (%d) than A (%d)", f.NNZ(), a.NNZ())
	}
}

func TestILUTDroppingReducesFill(t *testing.T) {
	a := sparse.Laplace2D(12, 12)
	full, err := NewILUT(a, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := NewILUT(a, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dropped.NNZ() >= full.NNZ() {
		t.Errorf("dropping did not reduce fill: %d vs %d", dropped.NNZ(), full.NNZ())
	}
}

func TestILUTValidation(t *testing.T) {
	rect := sparse.NewCOO(2, 3)
	rect.Append(0, 0, 1)
	if _, err := NewILUT(rect.ToCSR(), 0, 1); err == nil {
		t.Error("rectangular accepted")
	}
	if _, err := NewILUT(sparse.Identity(3), -1, 1); err == nil {
		t.Error("negative droptol accepted")
	}
	if _, err := NewILUT(sparse.Identity(3), 0, 0); err == nil {
		t.Error("zero fill accepted")
	}
	zeroRow := sparse.NewCOO(2, 2)
	zeroRow.Append(0, 0, 1)
	if _, err := NewILUT(zeroRow.ToCSR(), 0, 1); err == nil {
		t.Error("zero row accepted")
	}
}

func TestStatusArrayContents(t *testing.T) {
	global := sparse.Laplace2D(5, 5)
	run(t, 1, func(c *comm.Comm) {
		_, s := solveWith(t, c, global, func(s *Solver) {
			s.Options()[AZMaxIter] = 1000
			s.Params()[AZTol] = 1e-9
		})
		st := s.Status()
		if st[AZIts] <= 0 {
			t.Error("status AZIts not set")
		}
		if st[AZr] < 0 || st[AZScaledR] <= 0 {
			t.Error("status residuals not set")
		}
		if st[AZScaledR] > 1e-9+1e-15 {
			t.Errorf("scaled residual %v above tolerance", st[AZScaledR])
		}
	})
}

func TestDefaultArraysValid(t *testing.T) {
	if err := validateOptions(DefaultOptions(), DefaultParams()); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}
