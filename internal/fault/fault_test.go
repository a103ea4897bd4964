package fault

import (
	"errors"
	"testing"
	"time"

	"repro/internal/comm"
)

func TestSpecStringParseRoundTrip(t *testing.T) {
	specs := []Spec{
		{Seed: 42, CrashRank: -1},
		{Seed: -7, PDelay: 0.25, MaxDelay: 3 * time.Millisecond, CrashRank: -1},
		{Seed: 1, PReorder: 0.1, ReorderBy: 500 * time.Microsecond, PStall: 0.05,
			StallFor: 2 * time.Millisecond, PCrash: 0.01, CrashRank: 2, After: 100},
	}
	for _, want := range specs {
		got, err := ParseSpec(want.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", want.String(), err)
		}
		if got != want {
			t.Errorf("round trip changed spec:\n want %+v\n got  %+v", want, got)
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec("seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 9 || s.CrashRank != -1 {
		t.Errorf("got %+v, want seed=9 and crashrank default -1", s)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"seed",
		"seed=abc",
		"pdelay=1.5",
		"pcrash=-0.1",
		"maxdelay=fast",
		"after=-3",
		"bogus=1",
	}
	for _, text := range bad {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", text)
		}
	}
}

// drive pulls n decisions for every rank through a fresh injector and
// returns them flattened per rank.
func drive(spec Spec, ranks, n int) [][]comm.FaultDecision {
	in := New(spec, ranks)
	out := make([][]comm.FaultDecision, ranks)
	kinds := []comm.FaultKind{comm.FaultSend, comm.FaultRecv, comm.FaultBarrier}
	for r := 0; r < ranks; r++ {
		for i := 0; i < n; i++ {
			d := in.Fault(r, kinds[i%len(kinds)], (r+1)%ranks, i%5)
			out[r] = append(out[r], d)
		}
	}
	return out
}

func TestInjectorDeterministic(t *testing.T) {
	spec := Spec{
		Seed: 1234, PDelay: 0.3, MaxDelay: time.Millisecond,
		PReorder: 0.2, ReorderBy: time.Millisecond,
		PStall: 0.05, StallFor: time.Millisecond,
		PCrash: 0.02, CrashRank: -1, After: 3,
	}
	a := drive(spec, 4, 200)
	b := drive(spec, 4, 200)
	for r := range a {
		for i := range a[r] {
			da, db := a[r][i], b[r][i]
			if da.Op != db.Op || da.Delay != db.Delay {
				t.Fatalf("rank %d event %d differs across replays: %+v vs %+v", r, i, da, db)
			}
			if (da.Cause == nil) != (db.Cause == nil) {
				t.Fatalf("rank %d event %d cause presence differs", r, i)
			}
		}
	}
}

func TestInjectorSeedChangesSchedule(t *testing.T) {
	base := Spec{Seed: 1, PDelay: 0.5, MaxDelay: time.Millisecond, CrashRank: -1}
	other := base
	other.Seed = 2
	a, b := drive(base, 2, 200), drive(other, 2, 200)
	same := true
	for r := range a {
		for i := range a[r] {
			if a[r][i].Op != b[r][i].Op || a[r][i].Delay != b[r][i].Delay {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical 400-event schedules")
	}
}

func TestInjectorAfterArmsLate(t *testing.T) {
	spec := Spec{Seed: 5, PDelay: 1, MaxDelay: time.Millisecond, CrashRank: -1, After: 10}
	in := New(spec, 1)
	for i := 0; i < 10; i++ {
		if d := in.Fault(0, comm.FaultSend, 0, 0); d.Op != comm.FaultNone {
			t.Fatalf("event %d injected before After threshold: %+v", i, d)
		}
	}
	if d := in.Fault(0, comm.FaultSend, 0, 0); d.Op != comm.FaultDelay {
		t.Fatalf("event past After with pdelay=1 not delayed: %+v", d)
	}
	if got := in.ranks[0].events; got != 11 {
		t.Errorf("rank 0 was consulted on %d events, want 11", got)
	}
}

func TestInjectorCrashRankFilterAndCause(t *testing.T) {
	spec := Spec{Seed: 77, PCrash: 1, CrashRank: 1}
	in := New(spec, 2)
	if d := in.Fault(0, comm.FaultBarrier, -1, -1); d.Op != comm.FaultNone {
		t.Fatalf("rank 0 crashed despite crashrank=1: %+v", d)
	}
	d := in.Fault(1, comm.FaultBarrier, -1, -1)
	if d.Op != comm.FaultCrash {
		t.Fatalf("rank 1 with pcrash=1 did not crash: %+v", d)
	}
	if !errors.Is(d.Cause, comm.ErrInjectedFault) {
		t.Errorf("crash cause %v does not wrap comm.ErrInjectedFault", d.Cause)
	}
}

func TestInjectorReorderOnlyOnSend(t *testing.T) {
	spec := Spec{Seed: 3, PReorder: 1, ReorderBy: time.Millisecond, CrashRank: -1}
	in := New(spec, 1)
	if d := in.Fault(0, comm.FaultSend, 0, 0); d.Op != comm.FaultDropRedeliver {
		t.Fatalf("send with preorder=1 not dropped: %+v", d)
	}
	// Non-send events in the reorder band must degrade, never drop.
	for _, kind := range []comm.FaultKind{comm.FaultRecv, comm.FaultBarrier} {
		if d := in.Fault(0, kind, 0, 0); d.Op == comm.FaultDropRedeliver {
			t.Fatalf("%s event got DropRedeliver", kind)
		}
	}
}

func TestInjectorCounts(t *testing.T) {
	spec := Spec{Seed: 11, PDelay: 1, MaxDelay: time.Millisecond, CrashRank: -1}
	in := New(spec, 2)
	for r := 0; r < 2; r++ {
		for i := 0; i < 5; i++ {
			in.Fault(r, comm.FaultRecv, 0, 0)
		}
	}
	if got, want := in.Counts(), "delay=10"; got != want {
		t.Errorf("Counts() = %q, want %q", got, want)
	}
	if New(spec, 1).Counts() != "none" {
		t.Error("fresh injector Counts() != none")
	}
}
