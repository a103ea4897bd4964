package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// TestExitCodes pins lisi-bench's contract: 0 done, 2 bad flags, 1 a
// failure, 124 a campaign past its -timeout, 130 an interrupted one
// (TestSweepBinary in internal/bench pins the sweep's 0 and 3 on the real
// binary). The mid-run row interrupts worlds whose every rank is stalled
// in an injected 1 h pause, so it returns only if RunContext releases
// them; the row after it would stall the same way had run left that
// injector armed.
func TestExitCodes(t *testing.T) {
	background := func() context.Context { return context.Background() }
	cancelledAfter := func(d time.Duration) func() context.Context {
		return func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			if d == 0 {
				cancel()
			} else {
				time.AfterFunc(d, cancel)
			}
			return ctx
		}
	}
	quickTable := []string{"-experiment", "table1", "-quick", "-runs", "1"}
	for _, tc := range []struct {
		name   string
		ctx    func() context.Context
		args   []string
		code   int
		stderr string // substring stderr must contain
	}{
		{"unknown -experiment", background, []string{"-stat", "mean", "-experiment", "nosuch"}, 2, `unknown experiment "nosuch"`},
		{"unknown -stat", background, []string{"-stat", "mode"}, 2, `unknown stat "mode"`},
		{"malformed -fault-spec", background, []string{"-fault-spec", "pdelay=often"}, 2, "bad value for pdelay"},
		{"unknown flag", background, []string{"-nosuch"}, 2, "flag provided but not defined: -nosuch"},
		{"missing corpus", background, []string{"-sweep", "-corpus", filepath.Join(t.TempDir(), "none")}, 1, "sweep:"},
		{"timeout", background, append(quickTable, "-timeout", "1ns"), 124, "benchmark aborted: deadline exceeded"},
		{"interrupted", cancelledAfter(0), quickTable, 130, "benchmark aborted: interrupted"},
		{"interrupted mid-run", cancelledAfter(50 * time.Millisecond),
			append(quickTable, "-fault-spec", "pstall=1,stallfor=1h"), 130, "benchmark aborted: interrupted"},
		{"solved after an armed injector", background,
			[]string{"-telemetry", filepath.Join(t.TempDir(), "t.json"), "-runs", "1", "-grid", "8", "-procs", "2"}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			median := bench.UseMedian
			var stdout, stderr bytes.Buffer
			if code := run(tc.ctx(), tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, &stderr)
			}
			if bench.UseMedian != median {
				t.Errorf("run left bench.UseMedian = %v, found %v", bench.UseMedian, median)
			}
		})
	}
}
