package slu

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

// sameStructure reports whether two factors share the row permutation
// and the stored structure of L and U — what a replay keeps.
func sameStructure(a, b *LU) bool {
	return slices.Equal(a.rowPerm, b.rowPerm) &&
		slices.Equal(a.lPtr, b.lPtr) && slices.Equal(a.lRows, b.lRows) &&
		slices.Equal(a.uPtr, b.uPtr) && slices.Equal(a.uRows, b.uRows) &&
		slices.Equal(a.zPtr, b.zPtr) && slices.Equal(a.zRows, b.zRows)
}

// refresher drives one (Symbolic, LU) pair through a sequence of
// same-pattern value sets and holds every refresh against a fresh Factor.
type refresher struct {
	t    *testing.T
	sym  *Symbolic
	f    *LU
	prev *LU // fresh factor of the last refresh that succeeded, nil after a failure
}

// refresh runs the numeric phase for a into r.f and requires the outcome
// a fresh Factor has — every array bit for bit, or the same error text. It
// returns the pass taken and the one the previous factor predicts: nothing
// to replay → full; same permutation and structure as last time →
// replayed; anything else, an error of the numeric loop included → fell
// back.
func (r *refresher) refresh(what string, a *sparse.CSR, opts Options) (pass, predicted numericPass) {
	r.t.Helper()
	want, wantErr := Factor(a, opts)
	pass, err := r.sym.factorInto(r.f, a, opts)
	predicted = passFellBack
	switch {
	case r.prev == nil,
		wantErr != nil && strings.HasPrefix(wantErr.Error(), "slu: equilibrate:"):
		predicted = passFull
	case wantErr == nil && sameStructure(r.prev, want):
		predicted = passReplayed
	}
	r.prev = want
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			r.t.Fatalf("%s: refresh error %v, fresh Factor error %v", what, err, wantErr)
		}
		if r.f.sym != nil {
			r.t.Fatalf("%s: a failed pass left its factor marked complete", what)
		}
		return pass, predicted
	}
	requireSameLU(r.t, what, r.f, want)
	return pass, predicted
}

func scaled(a *sparse.CSR, s float64) *sparse.CSR {
	b := a.Clone()
	for k := range b.Vals {
		b.Vals[k] *= s
	}
	return b
}

// entryIndex returns the position of the stored entry (i, j) of a.
func entryIndex(t testing.TB, a *sparse.CSR, i, j int) int {
	t.Helper()
	for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
		if a.ColInd[k] == j {
			return k
		}
	}
	t.Fatalf("no stored entry (%d, %d)", i, j)
	return -1
}

// firstLEntry returns the position in a of an entry that f stores, divided
// by the pivot and otherwise untouched, as a sub-diagonal entry of L: the
// first one of the first factor column no earlier column updates.
func firstLEntry(t *testing.T, f *LU, a *sparse.CSR) int {
	t.Helper()
	for k := 0; k < f.n; k++ {
		if f.uPtr[k+1]-f.uPtr[k] == 1 && f.lPtr[k+1]-f.lPtr[k] > 1 {
			row := slices.Index(f.rowPerm, f.lRows[f.lPtr[k]+1])
			return entryIndex(t, a, row, f.colPerm[k])
		}
	}
	t.Fatal("no factor column is both un-updated and non-trivial")
	return -1
}

func staticRefactorOperators(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	stencil, _, err := mesh.PaperProblem(40).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	fem, _, err := mesh.DefaultFEMProblem(6, 7).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.Open("../../testdata/corpus/dd40_gen.mtx")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	dd40, err := sparse.ReadMatrixMarket(file)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*sparse.CSR{
		"stencil-40": stencil, "laplace-30": sparse.Laplace2D(30, 30), "fem-6": fem, "dd40": dd40,
	}
}

// passAny, as the pass a row of the oracle is built for, leaves the
// verdict to the previous factor alone.
const passAny numericPass = -1

// TestStaticRefactorBitwise is the oracle of the replay pass: whatever a
// same-pattern refresh is handed — values that keep every pivot, values
// that move them, a stored L entry cancelling to zero, a dropped zero
// coming back, a NaN, a singular matrix, another threshold — the factor it
// leaves is the one a fresh Factor builds, and it replayed exactly when
// the previous permutation and structure still hold.
func TestStaticRefactorBitwise(t *testing.T) {
	for name, a0 := range staticRefactorOperators(t) {
		for _, u := range []float64{1.0, 0.1} {
			for _, equil := range []bool{true, false} {
				opts := Options{ColPerm: OrderMinDegree, PivotThreshold: u, Equilibrate: equil}
				sym, err := Analyze(a0, opts.ColPerm)
				if err != nil {
					t.Fatal(err)
				}
				r := &refresher{t: t, sym: sym, f: new(LU)}
				step := func(what string, a *sparse.CSR, o Options, must numericPass) {
					t.Helper()
					what = fmt.Sprintf("%s u=%g equil=%v: %s", name, u, equil, what)
					pass, predicted := r.refresh(what, a, o)
					if pass != predicted || (must != passAny && pass != must) {
						t.Fatalf("%s: numeric pass %d, the previous factor predicts %d, the row is built for %d",
							what, pass, predicted, must)
					}
				}
				step("cold", a0, opts, passFull)
				step("uniform scale", scaled(a0, 2), opts, passReplayed)

				jitter := a0.Clone()
				for k, e := range sparse.RandomVector(len(jitter.Vals), 3) {
					jitter.Vals[k] *= 1 + 1e-7*e
				}
				step("jitter that keeps the pivots", jitter, opts, passReplayed)

				// Generic values, and every fifth diagonal entry too small to
				// pass either threshold: those columns pivot elsewhere.
				moved := a0.Clone()
				for k, e := range sparse.RandomVector(len(moved.Vals), 5) {
					moved.Vals[k] *= 1 + 0.3*e
				}
				for i := 0; i < moved.Rows; i += 5 {
					moved.Vals[entryIndex(t, moved, i, i)] *= 1e-3
				}
				step("values that move the pivots", moved, opts, passFellBack)
				step("a refresh after a fallback", scaled(moved, 2), opts, passReplayed)
				step("back to the first values", a0, opts, passFellBack)

				zeroed := a0.Clone()
				zeroed.Vals[firstLEntry(t, r.f, a0)] = 0
				step("a stored L entry becomes zero", zeroed, opts, passFellBack)
				step("the zero stays dropped", zeroed, opts, passReplayed)
				step("a value at a dropped position", a0, opts, passFellBack)

				flipped := a0.Clone()
				for i := 0; i < flipped.Rows; i++ {
					flipped.Vals[entryIndex(t, flipped, i, i)] *= -1
				}
				step("diagonal sign flip", flipped, opts, passAny)
				other := opts
				other.PivotThreshold = 1.1 - u
				step("threshold changed", flipped, other, passAny)
				step("threshold changed back", a0, opts, passAny)

				nan := a0.Clone()
				nan.Vals[len(nan.Vals)/2] = math.NaN()
				step("a NaN", nan, opts, passAny)
				step("after the NaN", a0, opts, passAny)

				// A zero row: the equilibration check under equil, no usable
				// pivot without — after either no factor is left to replay.
				zeroRow := a0.Clone()
				i := zeroRow.Rows / 3
				clear(zeroRow.Vals[zeroRow.RowPtr[i]:zeroRow.RowPtr[i+1]])
				step("a zero row", zeroRow, opts, passAny)
				if r.prev != nil {
					t.Fatalf("%s: a matrix with a zero row factored", name)
				}
				step("after the failure", a0, opts, passFull)
				step("a replay of the refilled factor", scaled(a0, 0.5), opts, passReplayed)
			}
		}
	}
}

// TestStaticRefactorPivotTie: two equal maxima below a diagonal that fails
// the threshold. The full pass gives the pivot to the one it meets first,
// and a replay must accept exactly that: same values replay, and so does
// raising the recorded pivot; raising the other one moves the pivot.
func TestStaticRefactorPivotTie(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	for _, e := range []struct {
		i, j int
		v    float64
	}{{0, 0, 1}, {1, 0, 4}, {2, 0, 4}, {1, 1, 1}, {2, 1, 3}, {0, 2, 2}, {2, 2, 1}} {
		coo.Append(e.i, e.j, e.v)
	}
	a := coo.ToCSR()
	opts := Options{ColPerm: OrderNatural, PivotThreshold: 1}
	sym, err := Analyze(a, opts.ColPerm)
	if err != nil {
		t.Fatal(err)
	}
	r := &refresher{t: t, sym: sym, f: new(LU)}
	r.refresh("cold", a, opts)
	winner := slices.Index(r.f.rowPerm, 0) // the original row pivoting column 0
	if winner == 0 {
		t.Fatal("the diagonal passed the threshold")
	}
	raised := func(row int) *sparse.CSR {
		b := a.Clone()
		b.Vals[entryIndex(t, b, row, 0)] = 5
		return b
	}
	for _, step := range []struct {
		what string
		a    *sparse.CSR
		want numericPass
	}{
		{"the tie again", a, passReplayed},
		{"the winner raised", raised(winner), passReplayed},
		{"the loser raised", raised(3 - winner), passFellBack},
		{"the tie after the loser won", a, passFellBack},
	} {
		if pass, predicted := r.refresh(step.what, step.a, opts); pass != step.want || predicted != step.want {
			t.Fatalf("%s: numeric pass %d, the previous factor predicts %d, want %d", step.what, pass, predicted, step.want)
		}
	}
}

// fuzzMatrix derives from the fuzz bytes an n×n pattern (n ≤ 24) with a
// full diagonal, and two value sets on it — small integers, so exact
// zeros, cancellations and pivot ties are the common case.
func fuzzMatrix(t testing.TB, pattern, values []byte) (a, b *sparse.CSR) {
	t.Helper()
	n := 1
	if len(pattern) > 0 {
		n += int(pattern[0]) % 24
	}
	var entries [][2]int
	for i := 0; i < n; i++ {
		entries = append(entries, [2]int{i, i})
	}
	for k := 1; k+1 < len(pattern); k += 2 {
		if i, j := int(pattern[k])%n, int(pattern[k+1])%n; i != j {
			entries = append(entries, [2]int{i, j})
		}
	}
	slices.SortFunc(entries, func(x, y [2]int) int {
		if x[0] != y[0] {
			return x[0] - y[0]
		}
		return x[1] - y[1]
	})
	a = patternCSR(t, n, slices.Compact(entries))
	b = a.Clone()
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			a.Vals[k] = 1 + float64(k%5)
			if a.ColInd[k] == i {
				a.Vals[k] += 8
			}
			b.Vals[k] = a.Vals[k]
			if len(values) > 0 {
				b.Vals[k] = float64(int8(values[k%len(values)])) / 4
			}
		}
	}
	return a, b
}

// FuzzStaticRefactorMatchesFresh: on a pattern and a value set taken from
// the fuzz bytes, a refresh from a diagonally dominant factor to those
// values, a second one on the same values and one back each leave what a
// fresh Factor leaves, under both thresholds and with or without
// equilibration.
func FuzzStaticRefactorMatchesFresh(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, []byte{4, 8, 252, 16})
	f.Add([]byte{7, 0, 1, 1, 0, 2, 0, 0, 2, 3, 1, 1, 3, 6, 2, 2, 6}, []byte{0, 4, 4, 0, 8, 4})
	f.Add([]byte{11, 1, 0, 2, 0, 3, 0, 4, 0, 0, 1, 0, 2, 0, 3, 0, 4}, []byte{40, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0})
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0}, []byte{1, 255, 0, 128, 127})
	f.Fuzz(func(t *testing.T, pattern, values []byte) {
		a, b := fuzzMatrix(t, pattern, values)
		for _, opts := range []Options{
			{ColPerm: OrderMinDegree, PivotThreshold: 1, Equilibrate: true},
			{ColPerm: OrderNatural, PivotThreshold: 0.1, Equilibrate: false},
		} {
			sym, err := Analyze(a, opts.ColPerm)
			if err != nil {
				t.Fatal(err)
			}
			r := &refresher{t: t, sym: sym, f: new(LU)}
			for _, round := range []struct {
				what string
				a    *sparse.CSR
			}{{"cold", a}, {"fuzzed values", b}, {"fuzzed values again", b}, {"back", a}} {
				pass, predicted := r.refresh(round.what, round.a, opts)
				if pass != predicted {
					t.Fatalf("%s: numeric pass %d, the previous factor predicts %d", round.what, pass, predicted)
				}
			}
		}
	})
}
