package main

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// paramProbe is one generated value for a key and the Set code its
// declaration gives it.
type paramProbe struct {
	backend, key, value string
	want                int
}

// boundaryProbes generates, from every registered backend's declared
// vocabulary, the values at the edges of each key: NaN, ±Inf, a
// non-number and an unknown name for every key; each finite bound, just
// outside it and just inside it for a number; every name for an enum;
// and every key another backend declares but this one does not. The
// expected code is read off the declaration here, not from Set.
func boundaryProbes() []paramProbe {
	declared := map[string]bool{}
	for _, info := range core.Backends() {
		for _, p := range info.Params {
			declared[p.Key] = true
		}
	}
	var probes []paramProbe
	for _, info := range core.Backends() {
		add := func(key, value string, want int) {
			probes = append(probes, paramProbe{info.Name, key, value, want})
		}
		own := map[string]bool{}
		for _, p := range info.Params {
			own[p.Key] = true
			refused := core.ErrBadArg
			if p.Kind == core.ParamIgnored {
				refused = core.OK
			}
			for _, v := range []string{"NaN", "+Inf", "-Inf", "abc", "no-such-name"} {
				add(p.Key, v, refused)
			}
			switch p.Kind {
			case core.ParamEnum:
				for _, n := range p.Names {
					add(p.Key, n, core.OK)
				}
			case core.ParamBool:
				add(p.Key, "true", core.OK)
				add(p.Key, "false", core.OK)
			case core.ParamInt, core.ParamFloat:
				for _, e := range []struct {
					at   float64
					open bool
					out  float64 // the direction out of the range
				}{{p.Min, p.MinOpen, -1}, {p.Max, p.MaxOpen, +1}} {
					if math.IsInf(e.at, 0) {
						continue
					}
					edge := core.ErrBadArg
					if !e.open {
						edge = core.OK
					}
					if p.Kind == core.ParamInt {
						add(p.Key, strconv.Itoa(int(e.at)), edge)
						add(p.Key, strconv.Itoa(int(e.at+e.out)), core.ErrBadArg)
						if in := e.at - e.out; in >= p.Min && in <= p.Max {
							add(p.Key, strconv.Itoa(int(in)), core.OK)
						}
						continue
					}
					format := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
					add(p.Key, format(e.at), edge)
					add(p.Key, format(math.Nextafter(e.at, e.out*math.Inf(1))), core.ErrBadArg)
					add(p.Key, format(math.Nextafter(e.at, -e.out*math.Inf(1))), core.OK)
				}
			}
		}
		for key := range declared {
			if !own[key] {
				add(key, "1", core.ErrUnknownKey)
			}
		}
		add("no_such_key", "1", core.ErrUnknownKey)
	}
	return probes
}

// TestParamBoundaries drives every generated probe through the doors
// that take a parameter: Set in the library (every probe: OK, ErrBadArg
// or ErrUnknownKey as declared), and, for each refused one, lisi-solve's
// -set (exit 1, as for any rank that cannot set up) and a service request
// (setup_failed/400). No accepted value reaches a solve.
func TestParamBoundaries(t *testing.T) {
	const lap49 = "../../testdata/corpus/lap49_sym.mtx"
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, pr := range boundaryProbes() {
		label := pr.backend + " " + pr.key + "=" + pr.value
		s, err := core.Open(pr.backend)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Set(pr.key, pr.value); got != pr.want {
			t.Errorf("library %s: Set returned %d, want %d", label, got, pr.want)
		}
		if pr.want == core.OK {
			continue
		}
		var stdout, stderr bytes.Buffer
		args := []string{"-matrix", lap49, "-procs", "1", "-solver", pr.backend, "-set", pr.key + "=" + pr.value}
		if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), pr.key+"="+pr.value) {
			t.Errorf("lisi-solve %s: exit %d, want 1 naming the parameter\nstderr:\n%s", label, code, &stderr)
		}
		req := &service.SolveRequest{
			Tenant: "probe", Backend: pr.backend, Params: map[string]string{pr.key: pr.value},
			Operator: service.OperatorRef{ID: "grid", Version: 1, GridN: 5},
		}
		var resp service.SolveResponse
		if serr := svc.Solve(context.Background(), req, &resp); serr == nil || serr.Code != service.CodeSetupFailed || serr.HTTPStatus() != 400 {
			t.Errorf("service %s: got %v, want %s/400", label, serr, service.CodeSetupFailed)
		}
	}
}
