package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRun: the PETSc-role GMRES+ILU solve converges, its true residual
// is small, and the configuration it prints is the one the example set.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`converged in (\d+) iterations, residual (\S+) `).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no convergence line:\n%s", &out)
	}
	if its, _ := strconv.Atoi(m[1]); its <= 0 {
		t.Errorf("%d iterations, want a positive count", its)
	}
	if res, err := strconv.ParseFloat(m[2], 64); err != nil || res > 1e-4 {
		t.Errorf("residual %s, want at most 1e-4", m[2])
	}
	for _, want := range []string{"solver=gmres", "preconditioner=ilu", "tol=1e-08"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("configuration lacks %q:\n%s", want, &out)
		}
	}
}
