package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRun: the Krylov solve against the application's MatMult callback
// converges without an assembled matrix crossing the port.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`: (\d+) iterations, residual (\S+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no solve line:\n%s", &out)
	}
	if its, _ := strconv.Atoi(m[1]); its <= 0 {
		t.Errorf("%d iterations, want a positive count", its)
	}
	if res, err := strconv.ParseFloat(m[2], 64); err != nil || res > 1e-4 {
		t.Errorf("residual %s, want at most 1e-4", m[2])
	}
	if !strings.Contains(out.String(), "no assembled matrix ever crossed the interface") {
		t.Errorf("no matrix-free line:\n%s", &out)
	}
}
