package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRun: every scenario commits a component to the full system and
// that solve meets the tolerance. Which component wins is timing, so
// only that one was selected is checked.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	picks := regexp.MustCompile(`-> selected (\S+) for the full system: .* residual (\S+)`).FindAllStringSubmatch(out.String(), -1)
	if len(picks) != 3 {
		t.Fatalf("%d selections, want one per scenario (3):\n%s", len(picks), &out)
	}
	for _, p := range picks {
		if res, err := strconv.ParseFloat(p[2], 64); err != nil || res > 1e-4 {
			t.Errorf("%s: full-system residual %s, want at most 1e-4", p[1], p[2])
		}
	}
}
