package aztec

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

// residualAfterPrec applies z = M⁻¹·b once for a preconditioner built
// from options and returns ‖b − A·z‖₂ relative to ‖b‖₂ — a direct
// measure of how well M approximates A.
func residualAfterPrec(t *testing.T, c *comm.Comm, global *sparse.CSR, prec, polyOrd int, drop, fill float64) float64 {
	t.Helper()
	crs := buildCrs(c, global)
	opts := DefaultOptions()
	opts[AZPrecond] = prec
	opts[AZPolyOrd] = polyOrd
	params := DefaultParams()
	params[AZDrop] = drop
	params[AZIlutFill] = fill
	p, err := newPreconditioner(crs, opts, params)
	if err != nil {
		t.Fatalf("newPreconditioner(%d): %v", prec, err)
	}
	l := crs.RowMap().Layout()
	b := make([]float64, l.LocalN)
	for i := range b {
		b[i] = 1
	}
	z := make([]float64, l.LocalN)
	p.apply(z, b)
	r := make([]float64, l.LocalN)
	if err := crs.Apply(r, z); err != nil {
		t.Fatal(err)
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return pmat.Norm2(c, r) / pmat.Norm2(c, b)
}

func TestPolynomialOrderImprovesNeumann(t *testing.T) {
	// Higher Neumann order = better approximation of A⁻¹.
	global := sparse.RandomDiagDominant(60, 3, 5)
	w, _ := comm.NewWorld(2)
	if err := w.Run(func(c *comm.Comm) {
		r1 := residualAfterPrec(t, c, global, AZNeumann, 1, 0, 1)
		r5 := residualAfterPrec(t, c, global, AZNeumann, 5, 0, 1)
		if r5 >= r1 {
			t.Errorf("Neumann order 5 (%g) not better than order 1 (%g)", r5, r1)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMoreJacobiStepsImprove(t *testing.T) {
	global := sparse.RandomDiagDominant(60, 3, 7)
	w, _ := comm.NewWorld(2)
	if err := w.Run(func(c *comm.Comm) {
		r1 := residualAfterPrec(t, c, global, AZJacobi, 1, 0, 1)
		r4 := residualAfterPrec(t, c, global, AZJacobi, 4, 0, 1)
		if r4 >= r1 {
			t.Errorf("4-step Jacobi (%g) not better than 1-step (%g)", r4, r1)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSymGSSweepsImprove(t *testing.T) {
	global := sparse.Laplace2D(8, 8)
	w, _ := comm.NewWorld(1)
	if err := w.Run(func(c *comm.Comm) {
		r1 := residualAfterPrec(t, c, global, AZSymGS, 1, 0, 1)
		r3 := residualAfterPrec(t, c, global, AZSymGS, 3, 0, 1)
		if r3 >= r1 {
			t.Errorf("3-sweep symGS (%g) not better than 1 (%g)", r3, r1)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDomDecompExactOnOneRank(t *testing.T) {
	// With zero drop and ample fill on one rank, ILUT is a complete LU of
	// the whole matrix: the preconditioned residual is ~0.
	global := sparse.RandomDiagDominant(50, 4, 9)
	w, _ := comm.NewWorld(1)
	if err := w.Run(func(c *comm.Comm) {
		r := residualAfterPrec(t, c, global, AZDomDecomp, 0, 0, 50)
		if r > 1e-10 {
			t.Errorf("full-fill single-domain ILUT residual %g", r)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPreconditionerZeroDiagonalRejected(t *testing.T) {
	coo := sparse.NewCOO(4, 4)
	coo.Append(0, 1, 1)
	coo.Append(1, 0, 1)
	coo.Append(2, 2, 1)
	coo.Append(3, 3, 1)
	coo.Append(0, 0, 0)
	coo.Append(1, 1, 0)
	global := coo.ToCSR()
	w, _ := comm.NewWorld(1)
	if err := w.Run(func(c *comm.Comm) {
		crs := buildCrs(c, global)
		for _, prec := range []int{AZJacobi, AZNeumann, AZLs, AZSymGS} {
			opts := DefaultOptions()
			opts[AZPrecond] = prec
			if _, err := newPreconditioner(crs, opts, DefaultParams()); err == nil {
				t.Errorf("preconditioner %d accepted zero diagonal", prec)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLsPrecReducesResidual(t *testing.T) {
	global := sparse.Laplace2D(8, 8)
	w, _ := comm.NewWorld(1)
	if err := w.Run(func(c *comm.Comm) {
		// Chebyshev-style polynomial of reasonable order approximates the
		// inverse better than one step of Jacobi on SPD problems.
		rCheb := residualAfterPrec(t, c, global, AZLs, 10, 0, 1)
		rJac := residualAfterPrec(t, c, global, AZJacobi, 1, 0, 1)
		if math.IsNaN(rCheb) || rCheb >= rJac {
			t.Errorf("AZLs order 10 (%g) not better than 1-step Jacobi (%g)", rCheb, rJac)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapSchwarzSolves(t *testing.T) {
	global := sparse.Laplace2D(10, 10)
	for _, overlap := range []int{1, 3, 8} {
		w, _ := comm.NewWorld(3)
		if err := w.Run(func(c *comm.Comm) {
			crs := buildCrs(c, global)
			s := NewSolver(c)
			s.SetUserMatrix(crs)
			s.Options()[AZSolver] = AZGMRES
			s.Options()[AZPrecond] = AZDomDecomp
			s.Options()[AZOverlap] = overlap
			l := crs.RowMap().Layout()
			b := make([]float64, l.LocalN)
			for i := range b {
				b[i] = 1
			}
			x := make([]float64, l.LocalN)
			if err := s.Iterate(x, b, 3000, 1e-10); err != nil {
				t.Fatalf("overlap=%d: %v", overlap, err)
			}
			res := make([]float64, l.LocalN)
			if err := crs.Apply(res, x); err != nil {
				t.Fatal(err)
			}
			for i := range res {
				res[i] = b[i] - res[i]
			}
			if rn := pmat.Norm2(c, res); rn > 1e-7 {
				t.Errorf("overlap=%d: residual %g", overlap, rn)
			}
		}); err != nil {
			t.Fatalf("overlap=%d: %v", overlap, err)
		}
	}
}

func TestOverlapReducesIterations(t *testing.T) {
	// The textbook additive-Schwarz behaviour: overlap strengthens the
	// preconditioner, so iteration counts drop (or at least do not rise)
	// relative to the zero-overlap block preconditioner.
	global := sparse.Laplace2D(16, 16)
	iters := map[int]int{}
	for _, overlap := range []int{0, 4} {
		w, _ := comm.NewWorld(4)
		if err := w.Run(func(c *comm.Comm) {
			crs := buildCrs(c, global)
			s := NewSolver(c)
			s.SetUserMatrix(crs)
			s.Options()[AZSolver] = AZGMRES
			s.Options()[AZPrecond] = AZDomDecomp
			s.Options()[AZOverlap] = overlap
			l := crs.RowMap().Layout()
			b := make([]float64, l.LocalN)
			for i := range b {
				b[i] = 1
			}
			x := make([]float64, l.LocalN)
			if err := s.Iterate(x, b, 3000, 1e-10); err != nil {
				t.Fatal(err)
			}
			if c.Rank() == 0 {
				iters[overlap] = s.NumIters()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if iters[4] > iters[0] {
		t.Errorf("overlap 4 took %d iterations vs %d without overlap", iters[4], iters[0])
	}
}

// TestOverlapSchwarzBorrowsAcrossPeers: with 8 ranks of 6–7 rows and
// overlap 14, a rank borrows from two or three peers on each side, and
// each peer's residual segment must land at its own rows of the
// extended block. The iteration count and the bits of x were recorded
// at ccb097c; every repeat must give them again.
func TestOverlapSchwarzBorrowsAcrossPeers(t *testing.T) {
	const wantIts, wantX = 10, uint64(0x94befa59197df343)
	global := sparse.Laplace2D(7, 7)
	for repeat := 0; repeat < 5; repeat++ {
		w, _ := comm.NewWorld(8)
		xs := make([][]float64, 8)
		its := 0
		if err := w.Run(func(c *comm.Comm) {
			crs := buildCrs(c, global)
			s := NewSolver(c)
			s.SetUserMatrix(crs)
			s.Options()[AZSolver] = AZGMRES
			s.Options()[AZPrecond] = AZDomDecomp
			s.Options()[AZOverlap] = 14
			l := crs.RowMap().Layout()
			b := make([]float64, l.LocalN)
			for i := range b {
				b[i] = 1
			}
			x := make([]float64, l.LocalN)
			if err := s.Iterate(x, b, 3000, 1e-10); err != nil {
				t.Error(err)
			}
			xs[c.Rank()] = x
			if c.Rank() == 0 {
				its = s.NumIters()
			}
		}); err != nil {
			t.Fatal(err)
		}
		var x []float64
		for _, xr := range xs {
			x = append(x, xr...)
		}
		if h := fnvBits(x); its != wantIts || h != wantX {
			t.Fatalf("repeat %d: %d iterations, x hash %#x; recorded %d, %#x", repeat, its, h, wantIts, wantX)
		}
	}
}

func TestOverlapValidation(t *testing.T) {
	global := sparse.Identity(8)
	w, _ := comm.NewWorld(2)
	if err := w.Run(func(c *comm.Comm) {
		crs := buildCrs(c, global)
		s := NewSolver(c)
		s.SetUserMatrix(crs)
		s.Options()[AZOverlap] = -1
		x := make([]float64, crs.RowMap().NumMyElements())
		b := make([]float64, crs.RowMap().NumMyElements())
		if err := s.Solve(x, b); err == nil {
			t.Error("negative overlap accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPolynomialPreconditionersPinned pins CG under AZJacobi, AZNeumann
// and AZLs on 2 ranks: iterations, the bits of AZr and a hash of x.
// The AZJacobi rows were recorded before the three preconditioners
// moved onto pmat's shared Richardson and Chebyshev loops and must
// never move; the AZNeumann and AZLs rows record the shared loops.
func TestPolynomialPreconditionersPinned(t *testing.T) {
	lap := sparse.Laplace2D(50, 50)
	lapB := make([]float64, lap.Rows)
	lap.MulVec(lapB, sparse.RandomVector(lap.Rows, 99))
	fem, femB, err := mesh.DefaultFEMProblem(16, 7).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		its     int
		r, xsum uint64
	}
	for _, tc := range []struct {
		name           string
		a              *sparse.CSR
		b              []float64
		precond, order int
		want           want
	}{
		{"laplace50/jacobi-1", lap, lapB, AZJacobi, 1, want{164, 0x3e4abeea84ede22f, 0x16ad46ed012471e5}},
		{"laplace50/jacobi-3", lap, lapB, AZJacobi, 3, want{96, 0x3e44264d475b73a1, 0x9bf90538e08e7cca}},
		{"laplace50/neumann-0", lap, lapB, AZNeumann, 0, want{164, 0x3e4abeea84ede22f, 0x16ad46ed012471e5}},
		{"laplace50/neumann-3", lap, lapB, AZNeumann, 3, want{63, 0x3e4753f3c2128fcd, 0xc2aac732084ea28e}},
		{"laplace50/ls-3", lap, lapB, AZLs, 3, want{61, 0x3e411dd96e539ae1, 0x9e18d9b924161679}},
		{"laplace50/ls-5", lap, lapB, AZLs, 5, want{39, 0x3e3ba4e83852fc4a, 0xbfc65d796d160a5e}},
		{"fem16/jacobi-1", fem, femB, AZJacobi, 1, want{72, 0x3d770ef06d60f5ff, 0x2000237d06735e00}},
		{"fem16/jacobi-3", fem, femB, AZJacobi, 3, want{41, 0x3d75a5d9fd13b182, 0xc97c188d65be1b85}},
		{"fem16/neumann-0", fem, femB, AZNeumann, 0, want{72, 0x3d770ef06d60f5ff, 0x2000237d06735e00}},
		{"fem16/neumann-3", fem, femB, AZNeumann, 3, want{29, 0x3d75d9562836de2d, 0x64045913821d97cf}},
		{"fem16/ls-3", fem, femB, AZLs, 3, want{26, 0x3d6f852ace0be48e, 0x7a2c51c04e873e6e}},
		{"fem16/ls-5", fem, femB, AZLs, 5, want{16, 0x3d6cd8a8952a297c, 0x4fb9f5ab89263008}},
	} {
		xs := make([][]float64, 2)
		var got want
		run(t, 2, func(c *comm.Comm) {
			crs := buildCrs(c, tc.a)
			s := NewSolver(c)
			s.SetUserMatrix(crs)
			s.Options()[AZSolver] = AZCG
			s.Options()[AZPrecond] = tc.precond
			s.Options()[AZPolyOrd] = tc.order
			l := crs.RowMap().Layout()
			x := make([]float64, l.LocalN)
			if err := s.Iterate(x, tc.b[l.Start:l.Start+l.LocalN], 2000, 1e-10); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			xs[c.Rank()] = x
			if c.Rank() == 0 {
				got.its, got.r = s.NumIters(), math.Float64bits(s.Status()[AZr])
			}
		})
		got.xsum = fnvBits(append(xs[0], xs[1]...))
		if got != tc.want {
			t.Errorf("%s: got %#v, recorded %#v", tc.name, got, tc.want)
		}
	}
}

// TestPolynomialApplyMakesNoCollective: a fixed-degree polynomial stops
// on its degree, so an apply of degree d on 2 ranks is d−1 products —
// one halo send per rank each — and no reduction and no trailing
// product.
func TestPolynomialApplyMakesNoCollective(t *testing.T) {
	global := sparse.Laplace2D(10, 10)
	w, _ := comm.NewWorld(2)
	for _, tc := range []struct {
		name                   string
		precond, order, degree int
	}{
		{"AZJacobi", AZJacobi, 3, 3},
		{"AZNeumann", AZNeumann, 3, 4},
		{"AZLs", AZLs, 3, 3},
	} {
		ps := make([]preconditioner, 2)
		if err := w.Run(func(c *comm.Comm) {
			opts := DefaultOptions()
			opts[AZPrecond] = tc.precond
			opts[AZPolyOrd] = tc.order
			p, err := newPreconditioner(buildCrs(c, global), opts, DefaultParams())
			if err != nil {
				panic(err)
			}
			ps[c.Rank()] = p
		}); err != nil {
			t.Fatal(err)
		}
		before := w.Stats()
		if err := w.Run(func(c *comm.Comm) {
			r := make([]float64, 50)
			for i := range r {
				r[i] = 1
			}
			ps[c.Rank()].apply(make([]float64, 50), r)
		}); err != nil {
			t.Fatal(err)
		}
		d := w.Stats().Sub(before)
		if d.Collectives != 0 || d.Sends != int64(2*(tc.degree-1)) {
			t.Errorf("%s order %d: %d collectives, %d sends; want 0 and %d", tc.name, tc.order, d.Collectives, d.Sends, 2*(tc.degree-1))
		}
	}
}
