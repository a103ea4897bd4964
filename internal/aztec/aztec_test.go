package aztec

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/pmat"
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

func TestMaxItersReported(t *testing.T) {
	global := sparse.Laplace2D(10, 10)
	run(t, 1, func(c *comm.Comm) {
		a := buildCrs(c, global)
		s := NewSolver(c)
		s.SetUserMatrix(a)
		s.Options()[AZSolver] = AZCG
		s.Options()[AZPrecond] = AZNone
		l := a.RowMap().Layout()
		b := make([]float64, l.LocalN)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, l.LocalN)
		err := s.Iterate(x, b, 2, 1e-14)
		if err == nil {
			t.Fatal("expected max-iterations failure")
		}
		if int(s.Status()[AZWhy]) != AZMaxIts {
			t.Errorf("why = %v, want AZMaxIts", s.Status()[AZWhy])
		}
		if s.NumIters() != 2 {
			t.Errorf("iterations = %d, want 2", s.NumIters())
		}
	})
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
