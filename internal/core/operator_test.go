package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/aztec"
	"repro/internal/comm"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

// goldenSystems maps each family of the golden digest record to the
// global system it solves, built the way internal/integration builds it.
var goldenSystems = map[string]testSystem{
	"stencil2d-9":  paperSystem(9),
	"fem3d-4x4x4":  femSystem(4, 7),
	"mm:lap49_sym": mmSystem("../../testdata/corpus/lap49_sym.mtx"),
	"mm:dd40_gen":  mmSystem("../../testdata/corpus/dd40_gen.mtx"),
}

// goldenFamilyNames reads the family of every row of the golden digest
// record, so a family added there without a system here fails loudly.
func goldenFamilyNames(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("../integration/testdata/golden_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct{ Digests map[string]string }
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	fams := map[string]bool{}
	for row := range rec.Digests {
		fams[row[:strings.LastIndex(row, "/")]] = true
	}
	return sortedKeys(fams)
}

// insertPathOperator is the operator aztec's native door builds from the
// same staged rows: every row through InsertGlobalValues, then
// FillComplete.
func insertPathOperator(t *testing.T, c *comm.Comm, rows *sparse.CSR, start int) *pmat.Mat {
	t.Helper()
	m, err := aztec.NewMapWithLocal(c, rows.Rows)
	if err != nil {
		t.Fatal(err)
	}
	crs := aztec.NewCrsMatrix(m)
	for li := 0; li < rows.Rows; li++ {
		cols, vals := rows.RowView(li)
		if err := crs.InsertGlobalValues(start+li, cols, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := crs.FillComplete(); err != nil {
		t.Fatal(err)
	}
	return crs.Dist()
}

// requireSameOperator compares two distributed operators bit for bit:
// their rows with global columns, their diagonals and their ghost counts.
func requireSameOperator(t *testing.T, label string, got, want *pmat.Mat) {
	t.Helper()
	g, w := got.LocalRowsGlobal(), want.LocalRowsGlobal()
	if !sameBits(g, w) {
		t.Errorf("%s: rows differ from the insert path's", label)
	}
	gd, wd := got.Diagonal(), want.Diagonal()
	for i := range wd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Errorf("%s: diagonal[%d] = %x, insert path %x", label, i, math.Float64bits(gd[i]), math.Float64bits(wd[i]))
			break
		}
	}
	if got.NumGhosts() != want.NumGhosts() {
		t.Errorf("%s: %d ghosts, insert path %d", label, got.NumGhosts(), want.NumGhosts())
	}
}

// stageEven stages the global system a·x = b on the component over an
// even block-row layout of c's world and returns that layout.
func stageEven(t *testing.T, c *comm.Comm, s SparseSolver, a *sparse.CSR, b []float64) *pmat.Layout {
	t.Helper()
	l, err := pmat.EvenLayout(c, a.Rows)
	if err != nil {
		t.Fatal(err)
	}
	local := a.SubMatrix(l.Start, l.Start+l.LocalN)
	n := l.LocalN
	mustOK(t, s.Initialize(c), "Initialize")
	mustOK(t, s.SetStartRow(l.Start), "SetStartRow")
	mustOK(t, s.SetLocalRows(n), "SetLocalRows")
	mustOK(t, s.SetGlobalCols(a.Rows), "SetGlobalCols")
	mustOK(t, s.SetupMatrix(local.Vals, local.RowPtr, local.ColInd, CSR, n+1, local.NNZ()), "SetupMatrix")
	mustOK(t, s.SetupRHS(b[l.Start:l.Start+n], n, 1), "SetupRHS")
	return l
}

// assembledBackends opens each component that solves the staged
// matrix itself.
var assembledBackends = []struct {
	name string
	open func() SparseSolver
}{
	{"petsc", func() SparseSolver { return NewKSPComponent() }},
	{"trilinos", func() SparseSolver { return NewAztecComponent() }},
	{"superlu", func() SparseSolver { return NewSLUComponent() }},
}

// builtOperator returns a component's adapter state and the staged
// operator its backend was last rebuilt on (nil if it runs on another).
func builtOperator(t *testing.T, s SparseSolver) (*baseAdapter, *pmat.Mat) {
	var base *baseAdapter
	switch s := s.(type) {
	case *KSPComponent:
		if s.mat.Assembled() != s.built.mat {
			return &s.baseAdapter, nil
		}
		base = &s.baseAdapter
	case *AztecComponent:
		base = &s.baseAdapter
	case *SLUComponent:
		base = &s.baseAdapter
	case *MGComponent:
		base = &s.baseAdapter
	default:
		t.Fatalf("%T is not a registry backend", s)
	}
	return base, base.built.mat
}

// TestPortOperatorMatchesInsertPath pins the operator the port builds
// from its staged rows against aztec's insert + FillComplete path (the
// native door's), bit for bit, for every golden family on 1 and 2 ranks,
// and requires every assembled backend to solve on that one operator:
// the trilinos component views it, so no golden digest can move with
// the path. Once the operator is built, the adapter keeps no staged rows
// beside it.
func TestPortOperatorMatchesInsertPath(t *testing.T) {
	for _, fam := range goldenFamilyNames(t) {
		sys, ok := goldenSystems[fam]
		if !ok {
			t.Fatalf("golden family %q has no system here", fam)
		}
		a, b := sys(t)
		for _, be := range assembledBackends {
			for _, p := range []int{1, 2} {
				run(t, p, func(c *comm.Comm) {
					s := be.open()
					l := stageEven(t, c, s, a, b)
					n := l.LocalN
					if be.name != "superlu" {
						mustOK(t, s.Set("preconditioner", "none"), "Set")
						mustOK(t, s.Set("maxits", "1"), "Set")
					}
					s.Solve(make([]float64, n), make([]float64, StatusLen), n, StatusLen)
					base, built := builtOperator(t, s)
					label := fmt.Sprintf("%s/%s on %d ranks", fam, be.name, p)
					if base.op == nil || built != base.op {
						t.Fatalf("%s: the backend did not solve on the staged operator", label)
					}
					if base.localA != nil {
						t.Errorf("%s: the adapter keeps its staged rows beside the operator", label)
					}
					want := insertPathOperator(t, c, a.SubMatrix(l.Start, l.Start+n), l.Start)
					requireSameOperator(t, label, base.op, want)
				})
			}
		}
	}
}

// TestReinitializeLeavesOldWorld: a component re-Initialized on a second
// world and solved again without restaging must build its operator on
// the new world. World 1 must see no traffic at all from that solve, and
// world 2's answer must be world 1's, bit for bit. No backend holds
// staged rows by then, so its world 2 operator is rebuilt from world 1's.
func TestReinitializeLeavesOldWorld(t *testing.T) {
	type backendCase struct {
		name   string
		open   func() SparseSolver
		system testSystem
	}
	var cases []backendCase
	for _, be := range assembledBackends {
		cases = append(cases, backendCase{be.name, be.open, paperSystem(20)})
	}
	cases = append(cases, backendCase{"mg", func() SparseSolver { return NewMGComponent() }, paperSystem(19)})
	for _, backend := range cases {
		t.Run(backend.name, func(t *testing.T) {
			a, b := backend.system(t)
			const p = 2
			comps := make([]SparseSolver, p)
			first := make([][]float64, p)
			w1, err := comm.NewWorld(p)
			if err != nil {
				t.Fatal(err)
			}
			err = w1.Run(func(c *comm.Comm) {
				s := backend.open()
				comps[c.Rank()] = s
				n := stageEven(t, c, s, a, b).LocalN
				x := make([]float64, n)
				mustOK(t, s.Solve(x, make([]float64, StatusLen), n, StatusLen), "Solve on world 1")
				first[c.Rank()] = x
			})
			if err != nil {
				t.Fatal(err)
			}
			before := w1.Stats()
			w2, err := comm.NewWorld(p)
			if err != nil {
				t.Fatal(err)
			}
			err = w2.Run(func(c *comm.Comm) {
				s := comps[c.Rank()]
				mustOK(t, s.Initialize(c), "Initialize on world 2")
				n := len(first[c.Rank()])
				x := make([]float64, n)
				mustOK(t, s.Solve(x, make([]float64, StatusLen), n, StatusLen), "Solve on world 2")
				requireSameBits(t, "world 2 solution", x, first[c.Rank()])
				if base, op := builtOperator(t, s); base.localA != nil || op.L.Comm() != c {
					t.Errorf("rank %d: world 2's operator was not rebuilt from world 1's alone", c.Rank())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if moved := w1.Stats().Sub(before); moved != (comm.Stats{}) {
				t.Errorf("the solve on world 2 moved world 1's counters: %+v", moved)
			}
		})
	}
}

// TestRestageTrafficSameAcrossBackends: staging a new matrix version on
// 2 ranks costs the same collectives and sends on trilinos as on petsc —
// the one operator build — counted as the first Solve after SetupMatrix
// less a warm Solve of the same system, each in a Run region of its own.
func TestRestageTrafficSameAcrossBackends(t *testing.T) {
	a, b := paperSystem(20)(t)
	restage := map[string]comm.Stats{}
	for _, be := range []string{"petsc", "trilinos"} {
		w, err := comm.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		var comps [2]SparseSolver
		var locals [2]*sparse.CSR
		region := func(fn func(s SparseSolver, local *sparse.CSR)) comm.Stats {
			before := w.Stats()
			if err := w.Run(func(c *comm.Comm) { fn(comps[c.Rank()], locals[c.Rank()]) }); err != nil {
				t.Fatal(err)
			}
			return w.Stats().Sub(before)
		}
		solve := func(s SparseSolver, local *sparse.CSR) {
			n := local.Rows
			s.Solve(make([]float64, n), make([]float64, StatusLen), n, StatusLen)
		}
		if err := w.Run(func(c *comm.Comm) {
			s, _ := Open(be)
			l := stageEven(t, c, s, a, b)
			mustOK(t, s.Set("preconditioner", "none"), "Set")
			mustOK(t, s.Set("maxits", "1"), "Set")
			comps[c.Rank()], locals[c.Rank()] = s, a.SubMatrix(l.Start, l.Start+l.LocalN)
		}); err != nil {
			t.Fatal(err)
		}
		region(solve)
		warm := region(solve)
		first := region(func(s SparseSolver, local *sparse.CSR) {
			n := local.Rows
			mustOK(t, s.SetupMatrix(local.Vals, local.RowPtr, local.ColInd, CSR, n+1, local.NNZ()), "SetupMatrix")
			solve(s, local)
		})
		restage[be] = first.Sub(warm)
	}
	p, tr := restage["petsc"], restage["trilinos"]
	if p.Collectives != tr.Collectives || p.Sends != tr.Sends {
		t.Errorf("a new matrix version costs %d collectives / %d sends on trilinos, %d / %d on petsc",
			tr.Collectives, tr.Sends, p.Collectives, p.Sends)
	}
}
