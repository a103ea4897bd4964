package slu

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/par"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

// requireSameLU fails unless the two factors agree in every stored
// index and in every bit of every stored value.
func requireSameLU(t *testing.T, what string, got, want *LU) {
	t.Helper()
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, v := range xs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for _, c := range []struct {
		name string
		same bool
	}{
		{"n", got.n == want.n},
		{"lPtr", slices.Equal(got.lPtr, want.lPtr)},
		{"lRows", slices.Equal(got.lRows, want.lRows)},
		{"lVals", slices.Equal(bits(got.lVals), bits(want.lVals))},
		{"uPtr", slices.Equal(got.uPtr, want.uPtr)},
		{"uRows", slices.Equal(got.uRows, want.uRows)},
		{"uVals", slices.Equal(bits(got.uVals), bits(want.uVals))},
		{"zPtr", slices.Equal(got.zPtr, want.zPtr)},
		{"zRows", slices.Equal(got.zRows, want.zRows)},
		{"pivAt", slices.Equal(got.pivAt, want.pivAt)},
		{"rowPerm", slices.Equal(got.rowPerm, want.rowPerm)},
		{"colPerm", slices.Equal(got.colPerm, want.colPerm)},
		{"dr", slices.Equal(bits(got.dr), bits(want.dr))},
		{"dc", slices.Equal(bits(got.dc), bits(want.dc))},
	} {
		if !c.same {
			t.Fatalf("%s: %s differs from the from-scratch factor", what, c.name)
		}
	}
}

// perturbed returns a with the same pattern and values moved enough to
// change pivots on the unsymmetric test matrices.
func perturbed(a *sparse.CSR, seed int64) *sparse.CSR {
	b := a.Clone()
	noise := sparse.RandomVector(len(b.Vals), seed)
	for k := range b.Vals {
		b.Vals[k] *= 1 + 0.5*noise[k]
	}
	return b
}

func TestSymbolicFactorEqualsFactor(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"laplace": sparse.Laplace2D(12, 9),
		"unsym":   sparse.RandomUnsymmetric(80, 5, 3),
		"dd":      sparse.RandomDiagDominant(90, 6, 11),
	}
	for name, a := range mats {
		for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderMinDegree} {
			for _, opts := range []Options{
				{ColPerm: ord, PivotThreshold: 1, Equilibrate: true},
				{ColPerm: ord, PivotThreshold: 0.1, Equilibrate: false},
			} {
				sym, err := Analyze(a, ord)
				if err != nil {
					t.Fatal(err)
				}
				// One analysis, several value sets, each compared with a
				// cold Factor; the later rounds start from capacity hints.
				for round := int64(0); round < 3; round++ {
					b := perturbed(a, 100+round)
					got, err := sym.factorFresh(b, opts)
					if err != nil {
						t.Fatalf("%s/%v: %v", name, ord, err)
					}
					want, err := Factor(b, opts)
					if err != nil {
						t.Fatal(err)
					}
					requireSameLU(t, name+"/"+ord.String(), got, want)
				}
			}
		}
	}
}

func TestSymbolicFactorRejectsOtherPatterns(t *testing.T) {
	a := sparse.Laplace2D(5, 4)
	sym, err := Analyze(a, OrderMinDegree)
	if err != nil {
		t.Fatal(err)
	}
	if !sym.matches(a, OrderMinDegree) {
		t.Error("the analysed pattern and ordering rejected")
	}
	if sym.matches(sparse.Laplace2D(4, 5), OrderMinDegree) {
		t.Error("different pattern of the same order accepted")
	}
	if sym.matches(sparse.Laplace2D(5, 5), OrderMinDegree) {
		t.Error("different dimension accepted")
	}
	if sym.matches(a, OrderRCM) {
		t.Error("different ordering accepted")
	}
}

// rowPtrOnlyPair returns two nonsingular 3×3 matrices that share ColInd
// and differ in RowPtr alone.
func rowPtrOnlyPair(t *testing.T) (a, b *sparse.CSR) {
	t.Helper()
	ci := []int{0, 1, 2, 1, 2}
	a, err := sparse.NewCSR(3, 3, []int{0, 3, 4, 5}, ci, []float64{2, 1, 1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err = sparse.NewCSR(3, 3, []int{0, 1, 3, 5}, ci, []float64{2, 1, 1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSymbolicMatches(t *testing.T) {
	a := sparse.RandomDiagDominant(30, 4, 5)
	sym, err := Analyze(a, OrderMinDegree)
	if err != nil {
		t.Fatal(err)
	}
	if !sym.matches(perturbed(a, 1), OrderMinDegree) {
		t.Error("same pattern, new values: no match")
	}
	if sym.matches(a, OrderRCM) {
		t.Error("other ordering matched")
	}
	oneCol := a.Clone()
	k := oneCol.RowPtr[3] // first entry of row 3: retarget it to a free column
	for j := 0; ; j++ {
		if !slices.Contains(oneCol.ColInd[oneCol.RowPtr[3]:oneCol.RowPtr[4]], j) {
			oneCol.ColInd[k] = j
			break
		}
	}
	if sym.matches(oneCol, OrderMinDegree) {
		t.Error("one differing ColInd matched")
	}
	if sym.matches(sparse.RandomDiagDominant(31, 4, 5), OrderMinDegree) {
		t.Error("other dimension matched")
	}
	p, q := rowPtrOnlyPair(t)
	symP, err := Analyze(p, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	if !symP.matches(p, OrderNatural) || symP.matches(q, OrderNatural) {
		t.Error("RowPtr-only difference not told apart")
	}
	// The analysis owns its copy of the pattern.
	a.ColInd[0], a.ColInd[1] = a.ColInd[1], a.ColInd[0]
	if sym.matches(a, OrderMinDegree) {
		t.Error("analysis aliases the caller's pattern arrays")
	}
}

// onRanks runs fn on every rank of a p-rank world.
func onRanks(t *testing.T, p int, fn func(c *comm.Comm)) {
	t.Helper()
	w, err := comm.NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(fn); err != nil {
		t.Fatalf("p=%d: %v", p, err)
	}
}

func onOneRank(t *testing.T, fn func(c *comm.Comm)) { t.Helper(); onRanks(t, 1, fn) }

func mustMat(t *testing.T, c *comm.Comm, a *sparse.CSR) *pmat.Mat {
	t.Helper()
	l, err := pmat.EvenLayout(c, a.Rows)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pmat.NewMat(l, a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// requireDecisions compares the counted set-up decisions (not the times).
func requireDecisions(t *testing.T, what string, d *DistSolver, want SetupStats) {
	t.Helper()
	got := d.SetupStats()
	got.OrderingNs, got.NumericNs = 0, 0
	if got != want {
		t.Fatalf("%s: set-up decisions %+v, want %+v", what, got, want)
	}
}

// requireSolvesLikeCold checks d against a solver built cold on a: same
// factor, same solution bits.
func requireSolvesLikeCold(t *testing.T, what string, c *comm.Comm, d *DistSolver, a *sparse.CSR, opts Options) {
	t.Helper()
	cold, err := NewDistSolver(mustMat(t, c, a), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameLU(t, what, d.f, cold.f)
	b := sparse.RandomVector(a.Rows, 77)
	x, y := make([]float64, a.Rows), make([]float64, a.Rows)
	if _, err := d.SolveRefinedInto(x, b, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.SolveRefinedInto(y, b, 1); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			t.Fatalf("%s: x[%d] = %v, cold solver has %v", what, i, x[i], y[i])
		}
	}
}

func TestRefactorReusesAndInvalidates(t *testing.T) {
	onOneRank(t, func(c *comm.Comm) {
		a := sparse.RandomUnsymmetric(70, 5, 21)
		opts := DefaultOptions()
		d, err := NewDistSolver(mustMat(t, c, a), opts)
		if err != nil {
			t.Fatal(err)
		}
		want := SetupStats{Analyses: 1}
		check := func(what string, a *sparse.CSR, opts Options) {
			t.Helper()
			requireDecisions(t, what, d, want)
			requireSolvesLikeCold(t, what, c, d, a, opts)
		}
		check("cold", a, opts)

		refactor := func(a *sparse.CSR, opts Options) {
			t.Helper()
			if err := d.Refactor(mustMat(t, c, a), opts); err != nil {
				t.Fatal(err)
			}
		}
		// Values moved by half their size on a matrix with no dominant
		// diagonal: the analysis holds, the recorded pivots do not.
		b := perturbed(a, 5)
		refactor(b, opts)
		want.SymbolicReuses++
		want.RowPermFallbacks++
		check("same pattern, new values", b, opts)

		twice := scaled(b, 2)
		refactor(twice, opts)
		want.SymbolicReuses++
		want.StaticRefactors++
		check("same pattern, same pivots", twice, opts)

		noEquil := opts
		noEquil.Equilibrate = false
		refactor(b, noEquil)
		want.SymbolicReuses++
		want.RowPermFallbacks++
		check("equilibrate off: numeric only", b, noEquil)

		rcm := opts
		rcm.ColPerm = OrderRCM
		refactor(b, rcm)
		want.Analyses++
		check("ordering changed", b, rcm)
		refactor(b, opts)
		want.Analyses++

		// One ColInd moved: drop the stored entry (0, j) for some j ≠ 0 by
		// retargeting it to a column row 0 does not hold yet.
		oneCol := b.Clone()
		row0 := oneCol.ColInd[oneCol.RowPtr[0]:oneCol.RowPtr[1]]
		for j := oneCol.Cols - 1; ; j-- {
			if !slices.Contains(row0, j) {
				row0[len(row0)-1] = j
				break
			}
		}
		refactor(oneCol, opts)
		want.Analyses++
		check("one ColInd differs", oneCol, opts)

		// Another dimension is another partition too: the gather/scatter
		// staging is rebuilt along with the analysis.
		smaller := sparse.RandomUnsymmetric(40, 4, 2)
		refactor(smaller, opts)
		want.Analyses++
		check("dimension differs", smaller, opts)
	})

	onOneRank(t, func(c *comm.Comm) {
		p, q := rowPtrOnlyPair(t)
		opts := Options{ColPerm: OrderNatural, PivotThreshold: 1}
		d, err := NewDistSolver(mustMat(t, c, p), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Refactor(mustMat(t, c, q), opts); err != nil {
			t.Fatal(err)
		}
		if st := d.SetupStats(); st.Analyses != 2 || st.SymbolicReuses != 0 {
			t.Fatalf("RowPtr-only change: %+v, want a second analysis", st)
		}
		requireSolvesLikeCold(t, "RowPtr differs", c, d, q, opts)
	})
}

func TestRefactorFailureLeavesNoFactor(t *testing.T) {
	onOneRank(t, func(c *comm.Comm) {
		good := sparse.RandomDiagDominant(25, 4, 9)
		// Same pattern, column 7 stored as zeros: equilibration off meets
		// "no usable pivot", on meets the zero-column check.
		zeroCol := good.Clone()
		for k, j := range zeroCol.ColInd {
			if j == 7 {
				zeroCol.Vals[k] = 0
			}
		}
		for _, equil := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Equilibrate = equil
			d, err := NewDistSolver(mustMat(t, c, good), opts)
			if err != nil {
				t.Fatal(err)
			}
			p := par.New(2)
			d.f.EnableLevels(p)

			_, wantErr := Factor(zeroCol, opts)
			if wantErr == nil {
				t.Fatal("singular test matrix factored")
			}
			storage := d.f
			err = d.Refactor(mustMat(t, c, zeroCol), opts)
			if err == nil || !strings.HasSuffix(err.Error(), wantErr.Error()) {
				t.Fatalf("Refactor error %q does not carry Factor's %q", err, wantErr)
			}
			if d.f != nil {
				t.Error("failed Refactor left a factor reachable")
			}
			x := make([]float64, good.Rows)
			if _, err := d.SolveRefinedInto(x, sparse.RandomVector(good.Rows, 1), 0); err == nil {
				t.Error("solve after a failed Refactor succeeded")
			}
			if d.FillRatio() != 0 {
				t.Error("fill ratio reported without a factor")
			}

			next := perturbed(good, 3)
			if err := d.Refactor(mustMat(t, c, next), opts); err != nil {
				t.Fatalf("Refactor after a failure: %v", err)
			}
			if d.f != storage {
				t.Error("the recovery did not refill the withdrawn factor's storage")
			}
			// The failed refresh had a factor to replay: without equilibration
			// the replay met the zero pivot and the full pass worded the
			// error; with it the zero-column check came before either. The
			// recovery had no factor, so it is a reuse that replayed nothing.
			want := SetupStats{Analyses: 1, SymbolicReuses: 2}
			if !equil {
				want.RowPermFallbacks = 1
			}
			requireDecisions(t, fmt.Sprintf("equil=%v", equil), d, want)
			requireSolvesLikeCold(t, "after failure", c, d, next, opts)

			// The refilled storage is a factor like any other: it replays.
			again := scaled(next, 2)
			if err := d.Refactor(mustMat(t, c, again), opts); err != nil {
				t.Fatal(err)
			}
			want.SymbolicReuses++
			want.StaticRefactors++
			requireDecisions(t, fmt.Sprintf("equil=%v, after recovery", equil), d, want)
			requireSolvesLikeCold(t, "replay after recovery", c, d, again, opts)
			p.Close()
		}

		// A structurally empty column is a different pattern: re-analysed,
		// then rejected with Factor's text.
		coo := sparse.NewCOO(3, 3)
		coo.Append(0, 0, 1)
		coo.Append(1, 0, 2)
		coo.Append(2, 2, 3)
		coo.Append(1, 2, 1)
		empty := coo.ToCSR()
		opts := Options{ColPerm: OrderNatural, PivotThreshold: 1}
		d, err := NewDistSolver(mustMat(t, c, sparse.Identity(3)), opts)
		if err != nil {
			t.Fatal(err)
		}
		_, wantErr := Factor(empty, opts)
		if err := d.Refactor(mustMat(t, c, empty), opts); err == nil || !strings.HasSuffix(err.Error(), wantErr.Error()) {
			t.Fatalf("Refactor error %q does not carry Factor's %q", err, wantErr)
		}
	})
}

// TestRefactorRebuildsLevelMirrors: the row-major mirrors of a pooled
// factor describe the old values and structure; after a refactor the
// pooled solve must agree bit for bit with a serial solve of the new
// factor. A replayed refresh keeps the structure, so it rewrites the
// mirrors' values under the same level sets; a fallback builds new ones.
func TestRefactorRebuildsLevelMirrors(t *testing.T) {
	onOneRank(t, func(c *comm.Comm) {
		// Unequilibrated, so that doubling the matrix doubles U — and the
		// mirrors must follow — while every pivot decision stays.
		a := sparse.RandomUnsymmetric(120, 5, 8)
		opts := DefaultOptions()
		opts.Equilibrate = false
		d, err := NewDistSolver(mustMat(t, c, a), opts)
		if err != nil {
			t.Fatal(err)
		}
		p := par.New(2)
		defer p.Close()
		d.f.EnableLevels(p)
		for _, step := range []struct {
			what   string
			a      *sparse.CSR
			replay bool
		}{
			{"replayed refresh", scaled(a, 2), true},
			{"fallback refresh", perturbed(a, 4), false},
			{"replay after the fallback", scaled(perturbed(a, 4), 0.5), true},
		} {
			before, replays := d.f.ls, d.SetupStats().StaticRefactors
			if err := d.Refactor(mustMat(t, c, step.a), opts); err != nil {
				t.Fatal(err)
			}
			if got := d.SetupStats().StaticRefactors > replays; got != step.replay {
				t.Fatalf("%s: replayed = %v", step.what, got)
			}
			ls := d.f.ls
			if ls == nil || !ls.pool.Parallel() {
				t.Fatalf("%s: pool not carried across the refactor", step.what)
			}
			if kept := ls == before; kept != step.replay {
				t.Fatalf("%s: level sets kept = %v", step.what, kept)
			}
			requireSolvesLikeCold(t, step.what, c, d, step.a, opts)
		}
	})
}

// TestRefactorAcrossPartitions: repartitioning the same global matrix
// moves the gather/scatter staging and nothing else — rank 0 still finds
// its analysis valid.
func TestRefactorAcrossPartitions(t *testing.T) {
	global := sparse.RandomDiagDominant(41, 4, 13)
	n := global.Rows
	xstar := sparse.RandomVector(n, 5)
	b := make([]float64, n)
	global.MulVec(b, xstar)
	onRanks(t, 2, func(c *comm.Comm) {
		var d *DistSolver
		for round, rank0Rows := range []int{20, 33, 33, 7} {
			localN := rank0Rows
			if c.Rank() == 1 {
				localN = n - rank0Rows
			}
			l, err := pmat.NewLayout(c, localN)
			if err != nil {
				t.Error(err)
				return
			}
			m, err := pmat.NewMat(l, global.SubMatrix(l.Start, l.Start+l.LocalN))
			if err != nil {
				t.Error(err)
				return
			}
			if d == nil {
				d, err = NewDistSolver(m, DefaultOptions())
			} else {
				err = d.Refactor(m, DefaultOptions())
			}
			if err != nil {
				t.Error(err)
				return
			}
			x := make([]float64, l.LocalN)
			if _, err := d.SolveRefinedInto(x, b[l.Start:l.Start+l.LocalN], 1); err != nil {
				t.Error(err)
				return
			}
			for i := range x {
				if math.Abs(x[i]-xstar[l.Start+i]) > 1e-9 {
					t.Errorf("round %d rank %d: x[%d] = %v, want %v", round, c.Rank(), i, x[i], xstar[l.Start+i])
					return
				}
			}
		}
		if st := d.SetupStats(); c.Rank() == 0 && (st.Analyses != 1 || st.SymbolicReuses != 3) {
			t.Errorf("repartitioning re-analysed: %+v", st)
		}
	})
}
