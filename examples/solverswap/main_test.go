package main

import (
	"bytes"
	"regexp"
	"testing"
)

// TestRun: the one driver, re-wired to each of the four solver
// components in turn, gets a converged answer from every one.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile(`(?m)^(\S+) .* wiring=(\w+)$`).FindAllStringSubmatch(out.String(), -1)
	want := []string{"petsc-role", "trilinos-role", "superlu-role", "multigrid"}
	if len(rows) != len(want) {
		t.Fatalf("%d solver rows, want %d:\n%s", len(rows), len(want), &out)
	}
	for i, row := range rows {
		if row[1] != want[i] || row[2] != "true" {
			t.Errorf("row %d: %s wiring=%s, want %s wiring=true", i, row[1], row[2], want[i])
		}
	}
}
