package telemetry

import (
	"io"
	"maps"
	"sync"
)

// Aggregator is the in-memory sink: it collects SolveReports from many
// solves (safe for concurrent producers) and serves them to emitters —
// the JSON file writer and the expvar endpoint both read from one.
// Every report is folded into a running Summary as it arrives, so the
// summary costs the same however many solves a long-lived host has
// recorded.
type Aggregator struct {
	mu    sync.Mutex
	limit int // reports kept: 0 keeps every one, else the most recent limit
	// reports holds the kept reports in arrival order; with a limit,
	// once full it is a ring whose oldest report is at next.
	reports []*SolveReport
	next    int
	sum     Summary
}

// NewAggregator returns an empty aggregator that keeps every report
// it records, for a process that emits them all at the end (the
// -telemetry files of the CLIs).
func NewAggregator() *Aggregator { return &Aggregator{} }

// NewRecentAggregator returns an empty aggregator that keeps only the
// most recent limit > 0 reports, for a long-running host: its Summary
// still folds every report, and what it holds stays bounded.
func NewRecentAggregator(limit int) *Aggregator { return &Aggregator{limit: limit} }

// Record folds one report into the summary and keeps it. Nil
// aggregators and nil reports are ignored, so call sites need no
// guards.
func (a *Aggregator) Record(rep *SolveReport) {
	if a == nil || rep == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sum.add(rep)
	switch {
	case a.limit == 0 || len(a.reports) < a.limit:
		a.reports = append(a.reports, rep)
	default:
		a.reports[a.next] = rep
		a.next = (a.next + 1) % a.limit
	}
}

// Reports returns a copy of the kept reports in arrival order.
func (a *Aggregator) Reports() []*SolveReport {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append(append([]*SolveReport(nil), a.reports[a.next:]...), a.reports[:a.next]...)
}

// Len returns the number of reports recorded, kept or not.
func (a *Aggregator) Len() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sum.Solves
}

// Summary aggregates the recorded reports: total solves, iterations,
// wall time, per-phase seconds and comm totals — the long-running view
// the expvar endpoint publishes.
type Summary struct {
	Solves      int                `json:"solves"`
	Iterations  int                `json:"iterations"`
	WallSeconds float64            `json:"wall_seconds"`
	Phases      map[string]float64 `json:"phases"`
	Comm        CommStats          `json:"comm"`
}

// add folds one report into s; folding the reports in arrival order
// gives every sum the same bits a fold over the kept list would.
func (s *Summary) add(rep *SolveReport) {
	s.Solves++
	s.Iterations += rep.Iterations
	s.WallSeconds += rep.WallSeconds
	if s.Phases == nil && len(rep.Phases) > 0 {
		s.Phases = make(map[string]float64)
	}
	for p, sec := range rep.Phases {
		s.Phases[p] += sec
	}
	if rep.Comm != nil {
		s.Comm = s.Comm.Add(*rep.Comm)
	}
}

// Summarize returns the running summary of every recorded report.
func (a *Aggregator) Summarize() Summary {
	var s Summary
	if a != nil {
		a.mu.Lock()
		s = a.sum
		s.Phases = maps.Clone(s.Phases)
		a.mu.Unlock()
	}
	if s.Phases == nil {
		s.Phases = make(map[string]float64)
	}
	return s
}

// Emit writes every kept report as one JSON document (an object with a
// "reports" array), the file format behind the -telemetry flag of the
// CLIs.
func (a *Aggregator) Emit(w io.Writer) error {
	doc := []byte(`{"schema":"lisi.telemetry.report_set/v1","reports":[`)
	for i, rep := range a.Reports() {
		if i > 0 {
			doc = append(doc, ',')
		}
		doc = AppendReport(doc, rep)
	}
	return writeIndented(w, append(doc, "]}"...))
}
