package pmat

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/comm"
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

// distribute builds a Mat on each rank from a globally known CSR.
func distribute(c *comm.Comm, global *sparse.CSR) (*Layout, *Mat) {
	l, err := EvenLayout(c, global.Rows)
	if err != nil {
		panic(err)
	}
	local := global.SubMatrix(l.Start, l.Start+l.LocalN)
	m, err := NewMat(l, local)
	if err != nil {
		panic(err)
	}
	return l, m
}

func TestEvenLayout(t *testing.T) {
	run(t, 3, func(c *comm.Comm) {
		l, err := EvenLayout(c, 10)
		if err != nil {
			t.Fatal(err)
		}
		if l.N != 10 {
			t.Errorf("N = %d", l.N)
		}
		wantLocal := []int{4, 3, 3}[c.Rank()]
		if l.LocalN != wantLocal {
			t.Errorf("rank %d: LocalN = %d, want %d", c.Rank(), l.LocalN, wantLocal)
		}
		total := c.AllReduceInt(l.LocalN, comm.OpSum)
		if total != 10 {
			t.Errorf("local sizes sum to %d", total)
		}
		for i := 0; i < 10; i++ {
			if owns := l.Starts[c.Rank()] <= i && i < l.Starts[c.Rank()+1]; owns != l.Owns(i) {
				t.Errorf("Starts/Owns disagree at %d", i)
			}
		}
	})
}

func TestLayoutValidation(t *testing.T) {
	run(t, 2, func(c *comm.Comm) {
		if _, err := EvenLayout(c, -1); err == nil {
			t.Error("negative global size accepted")
		}
		// NewLayout with negative local must error before any collective.
		if _, err := NewLayout(c, -2); err == nil {
			t.Error("negative local size accepted")
		}
		// Keep ranks in lockstep for the collectives above: EvenLayout(-1)
		// and NewLayout(-2) return before communicating, so nothing to sync.
	})
}

func TestLayoutConformal(t *testing.T) {
	run(t, 2, func(c *comm.Comm) {
		a, _ := EvenLayout(c, 9)
		b, _ := EvenLayout(c, 9)
		if !a.Conformal(b) {
			t.Error("identical layouts not conformal")
		}
		d, _ := NewLayout(c, c.Rank()+1)
		if a.Conformal(d) {
			t.Error("different layouts conformal")
		}
	})
}

func TestVecOps(t *testing.T) {
	run(t, 4, func(c *comm.Comm) {
		l, _ := EvenLayout(c, 10)
		x := make([]float64, l.LocalN)
		y := make([]float64, l.LocalN)
		for i := range x {
			g := float64(l.Start + i)
			x[i] = g
			y[i] = 1
		}
		// sum of 0..9 = 45
		if got := Dot(c, x, y); got != 45 {
			t.Errorf("Dot = %v", got)
		}
		// ||(0..9)||^2 = 285
		if got := Norm2(c, x); math.Abs(got-math.Sqrt(285)) > 1e-12 {
			t.Errorf("Norm2 = %v", got)
		}
	})
}

func TestGatherScatterRoundTrip(t *testing.T) {
	run(t, 3, func(c *comm.Comm) {
		l, _ := EvenLayout(c, 11)
		global := sparse.RandomVector(11, 5)
		local := localPart(l, global)
		back := Gather(l, 0, local)
		if c.Rank() == 0 {
			for i := range back {
				if back[i] != global[i] {
					t.Fatalf("round trip changed element %d", i)
				}
			}
		}
		all := AllGather(l, local)
		for i := range global {
			if all[i] != global[i] {
				t.Fatalf("allgather element %d differs", i)
			}
		}
	})
}

func TestMatApplyMatchesSerial(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		global := sparse.Laplace2D(6, 5) // n = 30
		x := sparse.RandomVector(30, 77)
		want := make([]float64, 30)
		global.MulVec(want, x)
		run(t, p, func(c *comm.Comm) {
			l, m := distribute(c, global)
			xl := localPart(l, x)
			yl := make([]float64, l.LocalN)
			m.Apply(yl, xl)
			got := AllGather(l, yl)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("p=%d: y[%d] = %v, want %v", p, i, got[i], want[i])
				}
			}
		})
	}
}

// localPart returns a copy of this rank's block of a global vector.
func localPart(l *Layout, global []float64) []float64 {
	return append([]float64(nil), global[l.Start:l.Start+l.LocalN]...)
}

func TestMatValidation(t *testing.T) {
	run(t, 2, func(c *comm.Comm) {
		l, _ := EvenLayout(c, 4)
		bad := sparse.Identity(3) // wrong local row count on at least one rank
		if bad.Rows != l.LocalN {
			if _, err := NewMat(l, bad); err == nil {
				t.Error("NewMat accepted mismatched local rows")
			}
		}
		// Wrong global column count.
		wrongCols := sparse.Identity(l.LocalN)
		if _, err := NewMat(l, wrongCols); err == nil && l.N != l.LocalN {
			t.Error("NewMat accepted wrong column dimension")
		}
		c.Barrier()
	})
}

func TestMatGhostCounts(t *testing.T) {
	run(t, 2, func(c *comm.Comm) {
		// 1D Laplacian: each boundary row needs exactly one ghost.
		global := sparse.Tridiag(8, -1, 2, -1)
		_, m := distribute(c, global)
		if m.NumGhosts() != 1 {
			t.Errorf("rank %d: ghosts = %d, want 1", c.Rank(), m.NumGhosts())
		}
	})
}

func TestDiagBlockAndDiagonal(t *testing.T) {
	global := sparse.Laplace2D(4, 4)
	run(t, 4, func(c *comm.Comm) {
		l, m := distribute(c, global)
		db := m.DiagBlock()
		if db.Rows != l.LocalN || db.Cols != l.LocalN {
			t.Fatalf("DiagBlock dims %dx%d", db.Rows, db.Cols)
		}
		for i := 0; i < l.LocalN; i++ {
			for j := 0; j < l.LocalN; j++ {
				if db.At(i, j) != global.At(l.Start+i, l.Start+j) {
					t.Fatalf("DiagBlock (%d,%d) mismatch", i, j)
				}
			}
		}
		d := m.Diagonal()
		for i := range d {
			if d[i] != 4 {
				t.Errorf("Diagonal[%d] = %v", i, d[i])
			}
		}
	})
}

func TestLocalRowsGlobalAndGather(t *testing.T) {
	global := sparse.RandomDiagDominant(17, 4, 3)
	run(t, 3, func(c *comm.Comm) {
		l, m := distribute(c, global)
		loc := m.LocalRowsGlobal()
		for i := 0; i < l.LocalN; i++ {
			cols, vals := loc.RowView(i)
			for k, j := range cols {
				if global.At(l.Start+i, j) != vals[k] {
					t.Fatalf("LocalRowsGlobal entry (%d,%d) wrong", i, j)
				}
			}
		}
		g := m.GatherGlobal()
		if !g.AlmostEqual(global, 0) {
			t.Error("GatherGlobal differs from original")
		}
	})
}

func TestResidual(t *testing.T) {
	global := sparse.Tridiag(10, -1, 3, -1)
	xstar := sparse.RandomVector(10, 1)
	b := make([]float64, 10)
	global.MulVec(b, xstar)
	run(t, 2, func(c *comm.Comm) {
		l, m := distribute(c, global)
		bl := localPart(l, b)
		xl := localPart(l, xstar)
		if r := m.Residual(bl, xl); r > 1e-14 {
			t.Errorf("residual of exact solution = %v", r)
		}
	})
}

// Property: distributed SpMV equals serial SpMV for random matrices,
// random vectors, and every world size 1..4.
func TestQuickApplyMatchesSerial(t *testing.T) {
	f := func(seed int64, psize uint8) bool {
		p := int(psize)%4 + 1
		n := 12 + int(seed%9+9)%9
		global := sparse.RandomDiagDominant(n, 3, seed)
		x := sparse.RandomVector(n, seed+13)
		want := make([]float64, n)
		global.MulVec(want, x)
		w, err := comm.NewWorld(p)
		if err != nil {
			return false
		}
		ok := true
		err = w.Run(func(c *comm.Comm) {
			l, m := distribute(c, global)
			xl := make([]float64, l.LocalN)
			copy(xl, x[l.Start:l.Start+l.LocalN])
			yl := make([]float64, l.LocalN)
			m.Apply(yl, xl)
			for i := range yl {
				if math.Abs(yl[i]-want[l.Start+i]) > 1e-11 {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: repeated Apply calls are deterministic (plan reuse is sound).
func TestApplyRepeatable(t *testing.T) {
	global := sparse.Laplace2D(5, 5)
	run(t, 3, func(c *comm.Comm) {
		l, m := distribute(c, global)
		x := make([]float64, l.LocalN)
		for i := range x {
			x[i] = float64(l.Start + i + 1)
		}
		y1 := make([]float64, l.LocalN)
		m.Apply(y1, x)
		for rep := 0; rep < 10; rep++ {
			y2 := make([]float64, l.LocalN)
			m.Apply(y2, x)
			for i := range y1 {
				if y1[i] != y2[i] {
					t.Fatalf("Apply not repeatable at rep %d", rep)
				}
			}
		}
	})
}

// TestApplyAllocsSingleRank pins the satellite acceptance criterion
// literally: a warmed-up Apply performs zero heap allocations.
func TestApplyAllocsSingleRank(t *testing.T) {
	global := sparse.Laplace2D(8, 8)
	run(t, 1, func(c *comm.Comm) {
		l, m := distribute(c, global)
		x := sparse.RandomVector(l.LocalN, 3)
		y := make([]float64, l.LocalN)
		m.Apply(y, x) // warm up scratch
		runtime.GC()
		if avg := testing.AllocsPerRun(50, func() { m.Apply(y, x) }); avg != 0 {
			t.Errorf("Apply allocates %.2f allocs/op, want 0", avg)
		}
	})
}

// TestApplyAllocsMultiRank extends the zero-allocation guarantee to the
// communicating case: with 4 ranks exchanging ghost values through the
// payload pool, the whole process performs zero heap allocations per
// lockstep Apply. Rank 0 measures with testing.AllocsPerRun (process-wide
// malloc counting), while the other ranks mirror its runs+1 calls (one
// documented warm-up plus runs measured calls) so every collective Apply
// is matched.
func TestApplyAllocsMultiRank(t *testing.T) {
	const runs = 20
	global := sparse.Laplace2D(10, 10)
	run(t, 4, func(c *comm.Comm) {
		l, m := distribute(c, global)
		x := sparse.RandomVector(l.LocalN, int64(5+c.Rank()))
		y := make([]float64, l.LocalN)
		step := func() {
			m.Apply(y, x)
			c.Barrier()
		}
		for i := 0; i < 4; i++ {
			step() // prime the payload pool past the in-flight high-water mark
		}
		runtime.GC()
		if c.Rank() == 0 {
			// Every rank must run its runs+1 calls even when the count is
			// not asserted, so the lockstep collective pairing holds.
			avg := testing.AllocsPerRun(runs, step)
			// Under -race, sync.Pool drops 25% of Puts by design, so the
			// pooled ghost exchange cannot sustain strict zero; the
			// exchange still runs above for race coverage.
			if !raceEnabled && avg != 0 {
				t.Errorf("4-rank Apply allocates %.2f allocs/op process-wide, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				step()
			}
		}
		c.Barrier()
	})
}
