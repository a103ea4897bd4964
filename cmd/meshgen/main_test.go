package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins meshgen's contract: 0 written (and verified), 1 a
// rank that cannot write, 2 bad flags; and -corpus regenerates the
// checked-in workload corpus byte for byte, the golden suite's
// executable provenance.
func TestExitCodes(t *testing.T) {
	tmp := t.TempDir()
	blocker := filepath.Join(tmp, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	corpus := filepath.Join(tmp, "corpus")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // substring stdout must contain ("" = must be empty)
		stderr string // substring stderr must contain
	}{
		{"verified", []string{"-n", "9", "-procs", "2", "-dir", filepath.Join(tmp, "mesh"), "-verify"}, 0, "read-back verification passed", ""},
		{"unknown flag", []string{"-nosuch"}, 2, "", "flag provided but not defined: -nosuch"},
		{"directory not creatable", []string{"-n", "9", "-procs", "2", "-dir", filepath.Join(blocker, "sub")}, 1, "", "not a directory"},
		{"corpus", []string{"-corpus", corpus}, 0, "fem27_sym.mtx", ""},
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
	for _, name := range []string{"lap49_sym.mtx", "dd40_gen.mtx", "fem27_sym.mtx"} {
		got, err := os.ReadFile(filepath.Join(corpus, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-corpus %s differs from testdata/corpus/%s", name, name)
		}
	}
}
