package slu

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

// checkOrderingsMatchReference asserts permutation equality — not merely
// "is a permutation" — between ComputeOrdering and the pre-rewrite
// reference for both graph orderings.
func checkOrderingsMatchReference(t testing.TB, name string, a *sparse.CSR) {
	t.Helper()
	for _, ord := range []Ordering{OrderRCM, OrderMinDegree} {
		got, err := ComputeOrdering(a, ord)
		if err != nil {
			t.Fatalf("%s/%v: %v", name, ord, err)
		}
		want := refOrdering(a, ord)
		if len(got) != len(want) {
			t.Fatalf("%s/%v: length %d, want %d", name, ord, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s/%v: q[%d] = %d, reference has %d", name, ord, k, got[k], want[k])
			}
		}
	}
}

// patternCSR builds an n×n CSR holding exactly the listed (row, col)
// entries in the order given within each row — unsorted and repeated
// column indices survive, which sparse's own constructors would tidy.
func patternCSR(t testing.TB, n int, entries [][2]int) *sparse.CSR {
	t.Helper()
	rp := make([]int, n+1)
	for _, e := range entries {
		rp[e[0]+1]++
	}
	for i := 0; i < n; i++ {
		rp[i+1] += rp[i]
	}
	next := append([]int(nil), rp[:n]...)
	ci := make([]int, len(entries))
	for _, e := range entries {
		ci[next[e[0]]] = e[1]
		next[e[0]]++
	}
	vals := make([]float64, len(entries))
	for k := range vals {
		vals[k] = 1
	}
	a, err := sparse.NewCSR(n, n, rp, ci, vals)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestOrderingMatchesReferenceCorpus(t *testing.T) {
	files, err := filepath.Glob("../../testdata/corpus/*.mtx")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus matrices found (%v)", err)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sparse.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		checkOrderingsMatchReference(t, filepath.Base(path), a)
	}
}

func TestOrderingMatchesReferenceWorkloads(t *testing.T) {
	grids, fems := []int{8, 32, 100}, []int{5, 16}
	if testing.Short() {
		grids, fems = grids[:2], fems[:1] // the reference needs ~2 s on the large ones
	}
	for _, n := range grids {
		a, _, err := mesh.PaperProblem(n).GenerateGlobal()
		if err != nil {
			t.Fatal(err)
		}
		checkOrderingsMatchReference(t, fmt.Sprintf("stencil-%d", n), a)
	}
	for _, n := range fems {
		a, _, err := mesh.DefaultFEMProblem(n, 7).GenerateGlobal()
		if err != nil {
			t.Fatal(err)
		}
		checkOrderingsMatchReference(t, fmt.Sprintf("fem-%d", n), a)
	}
}

func TestOrderingMatchesReferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		n := 5 + int(seed*7%60)
		checkOrderingsMatchReference(t, fmt.Sprintf("dd/seed=%d", seed), sparse.RandomDiagDominant(n, 1+int(seed%6), seed))
	}
	for seed := int64(0); seed < 20; seed++ {
		checkOrderingsMatchReference(t, fmt.Sprintf("unsym/seed=%d", seed), sparse.RandomUnsymmetric(40, 4, seed))
	}
}

func TestOrderingMatchesReferenceShapes(t *testing.T) {
	const n = 12
	diag := func() [][2]int {
		var e [][2]int
		for i := 0; i < n; i++ {
			e = append(e, [2]int{i, i})
		}
		return e
	}
	denseRow, denseCol := diag(), diag()
	for j := 0; j < n; j++ {
		if j != 3 {
			denseRow = append(denseRow, [2]int{3, j})
			denseCol = append(denseCol, [2]int{j, 3})
		}
	}
	// Two blocks that share no edge: a path on 0..5 and a clique on 6..11.
	blocks := diag()
	for i := 0; i < 5; i++ {
		blocks = append(blocks, [2]int{i, i + 1}, [2]int{i + 1, i})
	}
	for i := 6; i < n; i++ {
		for j := 6; j < n; j++ {
			if i != j {
				blocks = append(blocks, [2]int{i, j})
			}
		}
	}
	// Strictly upper entries only, columns descending and one repeated.
	unsym := diag()
	for i := 0; i < n; i++ {
		for j := n - 1; j > i; j -= 2 {
			unsym = append(unsym, [2]int{i, j})
		}
	}
	unsym = append(unsym, [2]int{0, n - 1})

	shapes := map[string]*sparse.CSR{
		"n=1":           patternCSR(t, 1, [][2]int{{0, 0}}),
		"n=1/empty":     patternCSR(t, 1, nil),
		"diagonal-only": patternCSR(t, n, diag()),
		"dense-row":     patternCSR(t, n, denseRow),
		"dense-column":  patternCSR(t, n, denseCol),
		"disconnected":  patternCSR(t, n, blocks),
		"unsymmetric":   patternCSR(t, n, unsym),
		"arrow":         patternCSR(t, n, append(denseRow, denseCol[n:]...)),
	}
	// Explicit stored zeros are structure: the ordering must see them.
	zeros := sparse.Laplace2D(4, 3)
	for k := range zeros.Vals {
		if k%3 == 0 {
			zeros.Vals[k] = 0
		}
	}
	shapes["stored-zeros"] = zeros
	for name, a := range shapes {
		checkOrderingsMatchReference(t, name, a)
	}
}

// TestOrderingIgnoresValues pins fact 1 of the analyse-once design: the
// permutation is a function of the pattern alone.
func TestOrderingIgnoresValues(t *testing.T) {
	a := sparse.RandomUnsymmetric(60, 5, 3)
	b := a.Clone()
	for k := range b.Vals {
		b.Vals[k] = float64(k%7) - 3 // includes exact zeros
	}
	for _, ord := range []Ordering{OrderRCM, OrderMinDegree} {
		qa, _ := ComputeOrdering(a, ord)
		qb, _ := ComputeOrdering(b, ord)
		for k := range qa {
			if qa[k] != qb[k] {
				t.Fatalf("%v: permutation depends on values at %d", ord, k)
			}
		}
	}
}

// FuzzMinDegreeMatchesReference derives a pattern (n ≤ 64, any mix of
// repeated, unsorted, diagonal and one-sided entries) from the fuzz bytes
// and compares both graph orderings with the reference.
func FuzzMinDegreeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0})
	f.Add([]byte{15, 3, 1, 5, 4, 15, 0, 9, 9, 2, 7, 7, 2, 3, 1})
	f.Add([]byte{63, 255, 254, 253, 0, 1, 2, 40, 41, 42, 42, 40, 40, 42})
	f.Add([]byte{9, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 5, 6, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		var entries [][2]int
		for k := 1; k+1 < len(data); k += 2 {
			entries = append(entries, [2]int{int(data[k]) % n, int(data[k+1]) % n})
		}
		checkOrderingsMatchReference(t, "fuzz", patternCSR(t, n, entries))
	})
}
