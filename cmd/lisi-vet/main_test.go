package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins lisi-vet's contract: 0 clean, 1 findings (a stale
// suppression included), 2 bad flags or a pattern that does not load.
func TestExitCodes(t *testing.T) {
	const fixtures = "./internal/analysis/testdata/src/"
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // substring stdout must contain ("" = must be empty)
		stderr string // substring stderr must contain
	}{
		{"clean package", []string{fixtures + "ctxcomm/outofscope"}, 0, "", "lisi-vet: ok (1 packages"},
		{"finding", []string{fixtures + "spmddet"}, 1, "[spmddet] comm call", "finding(s)"},
		{"stale suppression", []string{fixtures + "ignorestale"}, 1, "[lisi-vet] stale suppression", "1 finding(s)"},
		{"unknown flag", []string{"-json", "./internal/comm"}, 2, "", "flag provided but not defined: -json"},
		{"pattern does not load", []string{"./no/such/dir"}, 2, "", "lisi-vet:"},
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

// TestList: -list prints exactly the kept analyzers, one per line, and
// exits 0 without loading anything.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"portcontract", "ctxcomm", "bufown", "spmddet"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("-list printed %v, want %v", names, want)
	}
}
