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
//
// Keys a backend has retired keep their seeds, after the backend's
// declared keys, and Set must refuse them as unknown.
func FuzzParamSet(f *testing.F) {
	seed := func(backend, key string, names []string) {
		for _, v := range append([]string{"1", "0", "-1", "0.5", "NaN", "true"}, names...) {
			f.Add(backend, key, v)
		}
	}
	for _, info := range Backends() {
		for _, p := range info.Params {
			seed(info.Name, p.Key, p.Names)
		}
		for _, key := range retiredKeys[info.Name] {
			seed(info.Name, key, nil)
		}
	}
	f.Fuzz(func(t *testing.T, backend, key, value string) {
		s, err := Open(backend)
		if err != nil {
			return
		}
		code := s.Set(key, value)
		for _, retired := range retiredKeys[backend] {
			if key == retired && code != ErrUnknownKey {
				t.Fatalf("%s: Set of retired key %q returned %d, want ErrUnknownKey", backend, key, code)
			}
		}
		switch code {
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

// retiredKeys are the keys each backend once declared and no longer
// accepts: mg's coarse operators are always Galerkin and its PDE is the
// staged matrix, so galerkin and convection are gone.
var retiredKeys = map[string][]string{"mg": {"convection", "galerkin"}}
