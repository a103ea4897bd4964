package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRun: one row per grid, and the multigrid cycle count stays
// within two of the coarsest grid's while the single-level GMRES+ILU
// iterations grow with the grid.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile(`(?m)^(\d+)x\d+ +(\d+) cycles, .* (\d+) iters,`).FindAllStringSubmatch(out.String(), -1)
	if len(rows) != 3 {
		t.Fatalf("%d grid rows, want 3:\n%s", len(rows), &out)
	}
	atoi := func(s string) int { v, _ := strconv.Atoi(s); return v }
	cycles0 := atoi(rows[0][2])
	for i, row := range rows {
		if c := atoi(row[2]); c <= 0 || c > cycles0+2 {
			t.Errorf("grid %s: %d cycles, want 1..%d", row[1], c, cycles0+2)
		}
		if i > 0 && atoi(row[3]) <= atoi(rows[i-1][3]) {
			t.Errorf("grid %s: %s GMRES+ILU iterations, not more than grid %s's %s", row[1], row[3], rows[i-1][1], rows[i-1][3])
		}
	}
}
