// Package telemetry is the solver observability layer: low-overhead
// phase timers, atomic counters and per-iteration residual traces that
// every LISI solve can feed, plus report types and sinks (in-memory
// aggregation, JSON emission, an expvar endpoint) that make the paper's
// measurement claims — Figure 5 and Table 1 attribute all interface
// cost to a small constant overhead — directly inspectable per phase.
//
// Instrumentation is nil-safe by construction: every Recorder method is
// a no-op on a nil receiver, so instrumented code paths pass a Recorder
// down unconditionally and a disabled recorder costs exactly one nil
// check per event. Recorders are safe for concurrent use by the
// goroutines of an SPMD world.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase names one of the accounting buckets a solve is attributed to.
type Phase string

// The canonical solve phases. Components may record additional phases;
// these four are the ones the bench harness reports for overhead
// attribution.
const (
	// PhaseSetup is operator construction: building the backend's
	// matrix representation, symbolic+numeric factorization, grid
	// hierarchies.
	PhaseSetup Phase = "setup"
	// PhasePrecond is preconditioner construction and setup.
	PhasePrecond Phase = "precond"
	// PhaseIterate is the iteration loop (or triangular solves for a
	// direct method).
	PhaseIterate Phase = "iterate"
	// PhasePortOverhead is time spent in the LISI port layer itself:
	// adapter format conversion, argument staging and dispatch — the
	// quantity the paper's Table 1 reports as "overhead".
	PhasePortOverhead Phase = "port_overhead"
	// PhaseAborted is wall time lost to a solve that was cancelled (or
	// timed out) before completing; the session layer records the reason
	// under the "abort_reason" label and counts aborts in the
	// "lisi.solves_aborted" counter.
	PhaseAborted Phase = "aborted"
)

// ResidualPoint is one entry of a residual trace.
type ResidualPoint struct {
	Iteration int     `json:"it"`
	Residual  float64 `json:"rnorm"`
}

// maxTrace bounds the residual history so a pathological solve cannot
// grow a recorder without limit; beyond it the trace keeps the head and
// counts the drops (reported via the "telemetry.trace_dropped" counter).
const maxTrace = 1 << 16

// Recorder accumulates phases, counters and residuals for one solve (or
// one rank of one solve). The zero value is ready to use; a nil
// *Recorder is a valid disabled recorder.
type Recorder struct {
	mu        sync.Mutex
	phases    map[Phase]int64 // accumulated nanoseconds
	counters  map[string]*int64
	residuals []ResidualPoint
	labels    map[string]string
	dropped   int64
}

// New returns an enabled Recorder.
func New() *Recorder { return &Recorder{} }

// noopStop is returned by StartPhase on a disabled recorder so the call
// site never allocates a closure for the nil case.
func noopStop() {}

// StartPhase starts a monotonic timer for phase p and returns the stop
// function; the elapsed time is added to the phase when stop is called.
// Stop functions are independent, so nested and overlapping phases are
// fine. On a nil Recorder both calls are no-ops.
func (r *Recorder) StartPhase(p Phase) func() {
	if r == nil {
		return noopStop
	}
	start := time.Now()
	return func() { r.AddPhase(p, time.Since(start)) }
}

// AddPhase adds an externally measured duration to a phase.
func (r *Recorder) AddPhase(p Phase, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.phases == nil {
		r.phases = make(map[Phase]int64, 8)
	}
	r.phases[p] += int64(d)
	r.mu.Unlock()
}

// counter returns the atomic cell for name, creating it on first use.
func (r *Recorder) counter(name string) *int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*int64, 8)
	}
	c, ok := r.counters[name]
	if !ok {
		c = new(int64)
		r.counters[name] = c
	}
	return c
}

// Add adds n to the named counter. Concurrent calls are safe; after the
// first call for a name the increment is a single atomic add.
func (r *Recorder) Add(name string, n int64) {
	if r == nil {
		return
	}
	atomic.AddInt64(r.counter(name), n)
}

// Counter returns the current value of the named counter (0 when never
// incremented or when the recorder is nil).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(c)
}

// Residual appends one point to the residual trace.
func (r *Recorder) Residual(it int, rnorm float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.residuals) < maxTrace {
		r.residuals = append(r.residuals, ResidualPoint{Iteration: it, Residual: rnorm})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// SetLabel attaches a key=value annotation carried into reports
// (solver name, backend, problem identification).
func (r *Recorder) SetLabel(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.labels == nil {
		r.labels = make(map[string]string, 4)
	}
	r.labels[key] = value
	r.mu.Unlock()
}

// PhaseSeconds returns the accumulated seconds of one phase.
func (r *Recorder) PhaseSeconds(p Phase) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	ns := r.phases[p]
	r.mu.Unlock()
	return time.Duration(ns).Seconds()
}

// Snapshot is a consistent copy of a Recorder's state.
type Snapshot struct {
	Phases    map[Phase]time.Duration
	Counters  map[string]int64
	Residuals []ResidualPoint
	Labels    map[string]string
}

// Snapshot copies the recorder's current state. A nil Recorder yields a
// zero Snapshot with empty (nil) maps.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.phases) > 0 {
		s.Phases = make(map[Phase]time.Duration, len(r.phases))
		for p, ns := range r.phases {
			s.Phases[p] = time.Duration(ns)
		}
	}
	if len(r.counters) > 0 || r.dropped > 0 {
		s.Counters = make(map[string]int64, len(r.counters)+1)
		for n, c := range r.counters {
			s.Counters[n] = atomic.LoadInt64(c)
		}
		if r.dropped > 0 {
			s.Counters["telemetry.trace_dropped"] = r.dropped
		}
	}
	if len(r.residuals) > 0 {
		s.Residuals = append([]ResidualPoint(nil), r.residuals...)
	}
	if len(r.labels) > 0 {
		s.Labels = make(map[string]string, len(r.labels))
		for k, v := range r.labels {
			s.Labels[k] = v
		}
	}
	return s
}

// Reset clears all accumulated state so a Recorder can be reused for a
// fresh solve.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phases = nil
	r.counters = nil
	r.residuals = nil
	r.labels = nil
	r.dropped = 0
	r.mu.Unlock()
}
