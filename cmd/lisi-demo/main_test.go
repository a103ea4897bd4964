package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins lisi-demo's contract: 0 solved (or the backend
// table printed), 2 an unknown solver or an mg run on an even grid.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // substring stdout must contain ("" = must be empty)
		stderr string // substring stderr must contain
	}{
		{"solved", []string{"-procs", "2", "-grid", "9", "-solver", "petsc"}, 0, "converged=true", ""},
		{"backends", []string{"-backends"}, 0, "| `superlu` | `lisi.solver.superlu` |", ""},
		{"unknown solver", []string{"-solver", "nosuch"}, 2, "", `unknown solver "nosuch"`},
		{"mg on an even grid", []string{"-solver", "mg", "-grid", "10"}, 2, "", "needs an odd grid"},
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
}
