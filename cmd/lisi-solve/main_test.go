package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestExitCodes pins lisi-solve's contract: 0 solved, 1 a failure (a
// Matrix Market file holding a NaN, or a rank that cannot set up), 2 bad
// flags, 124 a solve past its -timeout, 125 a rank killed by a
// -fault-spec crash.
func TestExitCodes(t *testing.T) {
	const lap49 = "../../testdata/corpus/lap49_sym.mtx"
	nan := filepath.Join(t.TempDir(), "nan.mtx")
	mm := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 NaN\n"
	if err := os.WriteFile(nan, []byte(mm), 0o644); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(t.TempDir(), "t.json")
	// Every entry 1.7e308: the first Arnoldi step overflows, and the
	// breakdown's report holds a NaN residual.
	huge := filepath.Join(t.TempDir(), "huge.mtx")
	mm = "%%MatrixMarket matrix coordinate real general\n4 4 16\n"
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 4; j++ {
			mm += fmt.Sprintf("%d %d 1.7e308\n", i, j)
		}
	}
	if err := os.WriteFile(huge, []byte(mm), 0o644); err != nil {
		t.Fatal(err)
	}
	hugeReport := filepath.Join(t.TempDir(), "huge.json")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // substring stdout must contain ("" = must be empty)
		stderr string // substring stderr must contain
	}{
		{"solved", []string{"-matrix", lap49}, 0, "solved 49x49 system", ""},
		{"non-finite entry", []string{"-matrix", nan}, 1, "", "non-finite entry"},
		{"rank fails", []string{"-matrix", lap49, "-set", "preconditioner=bogus"}, 1, "", "preconditioner=bogus"},
		{"typed failure", []string{"-matrix", "../../testdata/corpus/dd40_gen.mtx", "-set", "maxits=2", "-set", "tol=1e-12",
			"-telemetry", report}, 1, "", "solve failed: max_iterations"},
		{"breakdown", []string{"-matrix", huge, "-set", "preconditioner=none", "-set", "solver=gmres", "-procs", "1",
			"-telemetry", hugeReport}, 1, "", "solve failed: breakdown"},
		{"missing -matrix", nil, 2, "", "-matrix is required"},
		{"unknown -solver", []string{"-matrix", lap49, "-solver", "nosuch"}, 2, "", `unknown solver "nosuch"`},
		{"unknown flag", []string{"-nosuch"}, 2, "", "flag provided but not defined: -nosuch"},
		{"timeout", []string{"-matrix", lap49, "-timeout", "1ns"}, 124, "", "solve aborted: deadline exceeded"},
		{"injected crash", []string{"-matrix", lap49, "-procs", "2", "-fault-spec", "seed=1,pcrash=1"}, 125, "", "solve aborted:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			if tc.stdout == "" && stdout.Len() > 0 {
				t.Errorf("stdout not empty:\n%s", &stdout)
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, &stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, &stderr)
			}
		})
	}
	// The typed failure still writes its -telemetry report.
	if _, err := os.Stat(report); err != nil {
		t.Errorf("typed failure wrote no telemetry report: %v", err)
	}
	// The breakdown's report is whole: its NaN residual is a null.
	var rep telemetry.SolveReport
	if b, err := os.ReadFile(hugeReport); err != nil {
		t.Errorf("breakdown wrote no telemetry report: %v", err)
	} else if err := json.Unmarshal(b, &rep); err != nil {
		t.Errorf("breakdown's telemetry report does not decode: %v\n%s", err, b)
	} else if rep.Schema != telemetry.SchemaSolveReport || len(rep.ResidualTrace) != 2 {
		t.Errorf("breakdown's telemetry report is not whole:\n%s", b)
	}
}
