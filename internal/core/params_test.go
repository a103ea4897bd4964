package core

import (
	"strings"
	"testing"

	"repro/internal/pmat"
)

// FuzzParamSet: Set never panics; a value Set accepts appears in GetAll,
// and the component's configure hook then returns OK for either kind of
// slot, so no value passes validation and fails translation. configure
// is called directly, never Solve or attach: a fuzzed restart or workers
// value can ask for gigabytes or a million goroutines there.
func FuzzParamSet(f *testing.F) {
	for _, info := range Backends() {
		for _, p := range info.Params {
			for _, v := range append([]string{"1", "0", "-1", "0.5", "NaN", "true"}, p.Names...) {
				f.Add(info.Name, p.Key, v)
			}
		}
	}
	f.Fuzz(func(t *testing.T, backend, key, value string) {
		s, err := Open(backend)
		if err != nil {
			return
		}
		if backend == "mg" {
			mustOK(t, s.Set("grid_n", "3"), "grid_n") // configure requires it
		}
		switch code := s.Set(key, value); code {
		case OK:
		case ErrBadArg, ErrUnknownKey:
			return
		default:
			t.Fatalf("%s: Set(%q, %q) returned %d", backend, key, value, code)
		}
		if all := s.GetAll(); !strings.Contains(all, "\n"+key+"="+value+"\n") {
			t.Fatalf("%s: accepted %s=%q missing from GetAll:\n%s", backend, key, value, all)
		}
		h := s.(solveHooks)
		for _, op := range []staged{{mat: &pmat.Mat{}}, {shell: &shellOp{}}} {
			if code := h.configure(op); code != OK {
				t.Fatalf("%s: accepted %s=%q, then configure returned %d", backend, key, value, code)
			}
		}
	})
}
