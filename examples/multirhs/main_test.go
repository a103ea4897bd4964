package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun: three right-hand sides and a block of two share one
// factorization, and new values on the same pattern make one more.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "factorizations so far: 1\n"); n != 3 {
		t.Errorf("%d single right-hand sides on the first factorization, want 3:\n%s", n, &out)
	}
	for _, want := range []string{"block of 2 rhs: factorizations still 1\n", "after matrix update: factorizations = 2 "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, &out)
		}
	}
}
