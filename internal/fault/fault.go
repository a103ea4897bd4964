// Package fault is a deterministic, seed-driven fault injector for the
// comm runtime. It implements comm.FaultHook: at every communication
// event of every rank it draws from a per-rank PRNG seeded from
// Spec.Seed, so a schedule is a pure function of (spec, per-rank event
// sequence) — replayable byte for byte from the printed spec, no matter
// how the goroutines interleave in real time (delays change timing,
// never decisions).
//
// The spec language round-trips through ParseSpec/String so a failing
// chaos schedule from CI can be reproduced locally with the cmds'
// -fault-spec flag (docs/TESTING.md).
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/comm"
)

// Spec describes one fault schedule. Probabilities are per
// communication event and are evaluated in the order crash, stall,
// reorder, delay (first match wins), so they need not sum to anything.
type Spec struct {
	// Seed drives every random decision. Same spec, same schedule.
	Seed int64

	// PDelay is the probability of delaying an event by a uniform
	// random duration in (0, MaxDelay].
	PDelay   float64
	MaxDelay time.Duration

	// PReorder is the probability of turning a send into a
	// drop-with-redelivery after a uniform duration in (0, ReorderBy]
	// (non-send events degrade to a delay, see comm.FaultDropRedeliver).
	PReorder  float64
	ReorderBy time.Duration

	// PStall is the probability of stalling the rank for StallFor.
	PStall   float64
	StallFor time.Duration

	// PCrash is the probability of crashing the rank (world poisoned
	// with a cause wrapping comm.ErrInjectedFault). When CrashRank is
	// >= 0 only that rank may crash; -1 lets any rank crash.
	PCrash    float64
	CrashRank int

	// After arms the injector only from each rank's (After+1)-th
	// communication event on, letting a schedule spare the setup phase.
	After int
}

// String renders the spec in the ParseSpec syntax. Zero-valued fields
// are included so a printed spec is complete and self-describing.
func (s Spec) String() string {
	return fmt.Sprintf(
		"seed=%d,pdelay=%g,maxdelay=%s,preorder=%g,reorderby=%s,pstall=%g,stallfor=%s,pcrash=%g,crashrank=%d,after=%d",
		s.Seed, s.PDelay, s.MaxDelay, s.PReorder, s.ReorderBy,
		s.PStall, s.StallFor, s.PCrash, s.CrashRank, s.After)
}

// ParseSpec parses the comma-separated key=value syntax emitted by
// Spec.String (keys may appear in any order; omitted keys keep their
// zero value, except crashrank which defaults to -1 = any rank).
func ParseSpec(text string) (Spec, error) {
	s := Spec{CrashRank: -1}
	text = strings.TrimSpace(text)
	if text == "" {
		return s, fmt.Errorf("fault: empty spec")
	}
	for _, field := range strings.Split(text, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return s, fmt.Errorf("fault: spec field %q is not key=value", field)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseInt(value, 10, 64)
		case "pdelay":
			s.PDelay, err = parseProb(value)
		case "maxdelay":
			s.MaxDelay, err = time.ParseDuration(value)
		case "preorder":
			s.PReorder, err = parseProb(value)
		case "reorderby":
			s.ReorderBy, err = time.ParseDuration(value)
		case "pstall":
			s.PStall, err = parseProb(value)
		case "stallfor":
			s.StallFor, err = time.ParseDuration(value)
		case "pcrash":
			s.PCrash, err = parseProb(value)
		case "crashrank":
			s.CrashRank, err = strconv.Atoi(value)
		case "after":
			s.After, err = strconv.Atoi(value)
			if err == nil && s.After < 0 {
				err = fmt.Errorf("negative")
			}
		default:
			return s, fmt.Errorf("fault: unknown spec key %q", key)
		}
		if err != nil {
			return s, fmt.Errorf("fault: bad value for %s: %q", key, value)
		}
	}
	return s, nil
}

func parseProb(value string) (float64, error) {
	p, err := strconv.ParseFloat(value, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("probability outside [0,1]")
	}
	return p, nil
}

// rankState is one rank's private decision stream. Only that rank's
// goroutine touches it (see comm.FaultHook's concurrency contract), so
// no locking is needed; the padding keeps adjacent ranks off one cache
// line anyway.
type rankState struct {
	rng    *rand.Rand
	events int64
	counts map[comm.FaultOp]int64
	_      [64]byte
}

// Injector implements comm.FaultHook over a Spec for a fixed world
// size.
type Injector struct {
	spec  Spec
	ranks []rankState
}

// New builds an injector for a world of the given size. Each rank's
// PRNG is seeded from spec.Seed and the rank id, so schedules are
// independent per rank yet fully determined by the spec.
func New(spec Spec, worldSize int) *Injector {
	in := &Injector{spec: spec, ranks: make([]rankState, worldSize)}
	for r := range in.ranks {
		in.ranks[r].rng = rand.New(rand.NewSource(spec.Seed + int64(r)*int64(0x9E3779B97F4A7C15&0x7FFFFFFFFFFFFFFF)))
		in.ranks[r].counts = make(map[comm.FaultOp]int64)
	}
	return in
}

// Fault implements comm.FaultHook.
func (in *Injector) Fault(rank int, kind comm.FaultKind, peer, tag int) comm.FaultDecision {
	st := &in.ranks[rank]
	st.events++
	if st.events <= int64(in.spec.After) {
		return comm.FaultDecision{}
	}
	// One uniform draw selects the op; a second draw (taken only when
	// a jittered duration is needed) sizes it. The draw count per event
	// is fixed per decision path, keeping the stream aligned across
	// replays.
	u := st.rng.Float64()
	s := in.spec
	switch {
	case u < s.PCrash:
		if s.CrashRank >= 0 && s.CrashRank != rank {
			return comm.FaultDecision{}
		}
		st.counts[comm.FaultCrash]++
		return comm.FaultDecision{
			Op: comm.FaultCrash,
			Cause: fmt.Errorf("%w: rank %d killed at %s event %d (spec %s)",
				comm.ErrInjectedFault, rank, kind, st.events, s),
		}
	case u < s.PCrash+s.PStall:
		st.counts[comm.FaultStall]++
		return comm.FaultDecision{Op: comm.FaultStall, Delay: s.StallFor}
	case u < s.PCrash+s.PStall+s.PReorder && kind == comm.FaultSend:
		st.counts[comm.FaultDropRedeliver]++
		return comm.FaultDecision{Op: comm.FaultDropRedeliver, Delay: jitter(st.rng, s.ReorderBy)}
	case u < s.PCrash+s.PStall+s.PReorder+s.PDelay:
		st.counts[comm.FaultDelay]++
		return comm.FaultDecision{Op: comm.FaultDelay, Delay: jitter(st.rng, s.MaxDelay)}
	}
	return comm.FaultDecision{}
}

// jitter draws a uniform duration in (0, max] (zero when max is zero).
func jitter(rng *rand.Rand, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(max))) + 1
}

// Counts returns the total injections performed, by op, across all
// ranks, rendered as a deterministic "op=n,..." string for logs. Call
// only after the Run region completed.
func (in *Injector) Counts() string {
	total := make(map[comm.FaultOp]int64)
	for r := range in.ranks {
		for op, n := range in.ranks[r].counts {
			total[op] += n
		}
	}
	ops := make([]comm.FaultOp, 0, len(total))
	for op := range total {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	parts := make([]string, 0, len(ops))
	for _, op := range ops {
		parts = append(parts, fmt.Sprintf("%s=%d", op, total[op]))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}
