// Golden conformance suite: every workload-corpus family solved by
// every applicable backend must produce bitwise-identical solutions
// across worker counts (checked unconditionally, in-process), and the
// resulting solution digest must match the checked-in golden record
// (checked when the recorded GOARCH matches, since float rounding may
// differ across architectures). The digests were recorded under the
// CSR kernels; every product now runs whatever the format rule binds
// (SELL on these operators), so an unchanged record is the end-to-end
// proof that the rule's kernels keep the row-order accumulation.
// Regenerate
// after an intentional numerical change with:
//
//	LISI_UPDATE_GOLDEN=1 go test ./internal/integration -run TestGoldenConformance
package integration_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

const goldenPath = "testdata/golden_digests.json"

// goldenFile is the checked-in digest record. Digests pin the exact
// solution bits on the architecture they were recorded on; the
// cross-config bitwise agreement that feeds them holds everywhere.
type goldenFile struct {
	Schema  string            `json:"schema"`
	GoArch  string            `json:"goarch"`
	Digests map[string]string `json:"digests"`
}

// goldenBackend is one backend column of the conformance matrix. row
// names the digest when one family runs a backend twice; it defaults to
// the backend's name.
type goldenBackend struct {
	name   string
	params map[string]string
	row    string
}

// goldenFamily is one corpus workload row: a global system plus the
// world size it is partitioned over.
type goldenFamily struct {
	name     string
	procs    int
	backends []goldenBackend
	system   func(t *testing.T) (*sparse.CSR, []float64)
}

func goldenFamilies() []goldenFamily {
	iterative := func(pcPetsc, pcTrilinos string) []goldenBackend {
		return []goldenBackend{
			{name: "petsc", params: map[string]string{
				"solver": "gmres", "preconditioner": pcPetsc,
				"tol": "1e-8", "maxits": "2000", "restart": "30"}},
			{name: "trilinos", params: map[string]string{
				"solver": "gmres", "preconditioner": pcTrilinos,
				"tol": "1e-8", "maxits": "2000"}},
			{name: "superlu", params: map[string]string{"refine_steps": "1"}},
		}
	}
	stencil := iterative("ilu", "domdecomp")
	stencil = append(stencil, goldenBackend{name: "mg", params: map[string]string{
		"tol": "1e-8", "cycles": "100"}})
	fem := iterative("ilu", "domdecomp")
	// Overlapping Schwarz: 2 rows borrowed across each rank boundary,
	// exchanged every apply.
	fem = append(fem, goldenBackend{name: "trilinos", row: "trilinos-overlap2", params: map[string]string{
		"solver": "gmres", "preconditioner": "domdecomp", "overlap": "2",
		"tol": "1e-8", "maxits": "2000"}})
	return []goldenFamily{
		{
			name: "stencil2d-9", procs: 3, backends: stencil,
			system: func(t *testing.T) (*sparse.CSR, []float64) {
				t.Helper()
				a, b, err := mesh.PaperProblem(9).GenerateGlobal()
				if err != nil {
					t.Fatal(err)
				}
				return a, b
			},
		},
		{
			name: "fem3d-4x4x4", procs: 3, backends: fem,
			system: func(t *testing.T) (*sparse.CSR, []float64) {
				t.Helper()
				a, b, err := mesh.DefaultFEMProblem(4, 7).GenerateGlobal()
				if err != nil {
					t.Fatal(err)
				}
				return a, b
			},
		},
		{
			name: "mm:lap49_sym", procs: 3, backends: iterative("jacobi", "jacobi"),
			system: mmGoldenSystem("../../testdata/corpus/lap49_sym.mtx"),
		},
		{
			name: "mm:dd40_gen", procs: 2, backends: iterative("jacobi", "jacobi"),
			system: mmGoldenSystem("../../testdata/corpus/dd40_gen.mtx"),
		},
	}
}

func mmGoldenSystem(path string) func(t *testing.T) (*sparse.CSR, []float64) {
	return func(t *testing.T) (*sparse.CSR, []float64) {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		a, err := sparse.ReadMatrixMarket(f)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1
		}
		return a, b
	}
}

// goldenSolve runs one full distributed solve and returns the gathered
// global solution bits and the iteration count.
func goldenSolve(t *testing.T, fam goldenFamily, be goldenBackend, workers int) ([]uint64, int) {
	t.Helper()
	a, rhs := fam.system(t)
	w, err := comm.NewWorld(fam.procs)
	if err != nil {
		t.Fatal(err)
	}
	var bits []uint64
	var iterations int
	runErr := w.Run(func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, a.Rows)
		if err != nil {
			t.Fatal(err)
		}
		localA := a.SubMatrix(l.Start, l.Start+l.LocalN)
		localB := rhs[l.Start : l.Start+l.LocalN]
		s, err := core.OpenSession(be.name, c, core.SessionOptions{
			Params:  be.params,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Setup(l, localA); err != nil {
			t.Fatal(err)
		}
		if err := s.SetupRHS(localB, 1); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, l.LocalN)
		res, err := s.Solve(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s/%s workers=%d did not converge: %s",
				fam.name, be.name, workers, res.FailReason)
		}
		full := pmat.Gather(l, 0, x)
		if c.Rank() == 0 {
			iterations = res.Iterations
			bits = make([]uint64, len(full))
			for i, v := range full {
				bits[i] = math.Float64bits(v)
			}
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return bits, iterations
}

// goldenDigest folds a solution trace into the pinned hex digest.
func goldenDigest(bits []uint64, iterations int) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(bits)))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(iterations))
	h.Write(buf[:])
	for _, b := range bits {
		binary.LittleEndian.PutUint64(buf[:], b)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenConformance is the corpus-wide pin: for every family ×
// backend, all worker counts must agree bitwise, and the agreed digest must match the golden record on its architecture.
func TestGoldenConformance(t *testing.T) {
	update := os.Getenv("LISI_UPDATE_GOLDEN") != ""
	var golden goldenFile
	raw, err := os.ReadFile(goldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("decoding %s: %v", goldenPath, err)
		}
	case os.IsNotExist(err) && update:
		// First recording run.
	default:
		t.Fatalf("reading %s: %v (run with LISI_UPDATE_GOLDEN=1 to record)", goldenPath, err)
	}
	compare := !update && golden.GoArch == runtime.GOARCH
	if !update && !compare {
		t.Logf("golden digests recorded on %s, running on %s: checking cross-config agreement only",
			golden.GoArch, runtime.GOARCH)
	}

	got := map[string]string{}
	workerCounts := []int{1, 4}
	for _, fam := range goldenFamilies() {
		for _, be := range fam.backends {
			row := be.row
			if row == "" {
				row = be.name
			}
			key := fam.name + "/" + row
			t.Run(key, func(t *testing.T) {
				refBits, refIters := goldenSolve(t, fam, be, workerCounts[0])
				for _, wk := range workerCounts[1:] {
					bits, iters := goldenSolve(t, fam, be, wk)
					if iters != refIters {
						t.Fatalf("workers=%d: %d iterations, reference %d", wk, iters, refIters)
					}
					for i := range bits {
						if bits[i] != refBits[i] {
							t.Fatalf("workers=%d: x[%d] = %x, reference %x", wk, i, bits[i], refBits[i])
						}
					}
				}
				d := goldenDigest(refBits, refIters)
				got[key] = d
				if compare {
					want, ok := golden.Digests[key]
					if !ok {
						t.Fatalf("no golden digest for %s (run LISI_UPDATE_GOLDEN=1 to record)", key)
					}
					if d != want {
						t.Fatalf("digest drift for %s:\n got  %s\n want %s\nan intentional numerical change needs LISI_UPDATE_GOLDEN=1",
							key, d, want)
					}
				}
			})
		}
	}

	if update {
		out := goldenFile{Schema: "lisi.golden/v1", GoArch: runtime.GOARCH, Digests: got}
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d golden digests for %s in %s", len(got), runtime.GOARCH, goldenPath)
	} else if compare {
		// Every recorded key must still exist: deleting a family or
		// backend silently would un-pin it.
		var missing []string
		for key := range golden.Digests {
			if _, ok := got[key]; !ok {
				missing = append(missing, key)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Fatalf("golden record pins %v but the suite no longer runs them", missing)
		}
	}
}
