package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderNoop exercises every Recorder method on a nil receiver:
// the disabled path must be a silent no-op, never a panic.
func TestNilRecorderNoop(t *testing.T) {
	var r *Recorder
	stop := r.StartPhase(PhaseSetup)
	stop()
	r.AddPhase(PhaseIterate, time.Second)
	r.Add("x", 3)
	r.Residual(1, 0.5)
	r.SetLabel("k", "v")
	r.Reset()
	if got := r.Counter("x"); got != 0 {
		t.Fatalf("nil recorder Counter = %d, want 0", got)
	}
	if got := r.PhaseSeconds(PhaseIterate); got != 0 {
		t.Fatalf("nil recorder PhaseSeconds = %g, want 0", got)
	}
	snap := r.Snapshot()
	if snap.Phases != nil || snap.Counters != nil || snap.Residuals != nil || snap.Labels != nil {
		t.Fatalf("nil recorder snapshot not empty: %+v", snap)
	}
	rep := r.Report("s")
	if rep.Solver != "s" || len(rep.Phases) != 0 {
		t.Fatalf("nil recorder report unexpected: %+v", rep)
	}
}

// TestConcurrentRecorder hammers one recorder from many goroutines; run
// with -race this is the data-race regression test required by the
// telemetry design (atomic counters, mutex-guarded traces).
func TestConcurrentRecorder(t *testing.T) {
	r := New()
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Add("events", 1)
				r.Add(fmt.Sprintf("worker.%d", w%4), 2)
				r.AddPhase(PhaseIterate, time.Microsecond)
				r.Residual(i, float64(i))
				stop := r.StartPhase(PhaseSetup)
				stop()
				if i%50 == 0 {
					_ = r.Snapshot()
					r.SetLabel("writer", fmt.Sprint(w))
				}
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("events"); got != workers*perWorker {
		t.Fatalf("events counter = %d, want %d", got, workers*perWorker)
	}
	perGroup := int64(workers / 4 * perWorker * 2)
	for g := 0; g < 4; g++ {
		if got := r.Counter(fmt.Sprintf("worker.%d", g)); got != perGroup {
			t.Fatalf("worker.%d counter = %d, want %d", g, got, perGroup)
		}
	}
	if got := r.PhaseSeconds(PhaseIterate); got < (workers * perWorker * time.Microsecond).Seconds() {
		t.Fatalf("iterate phase = %gs, want >= %gs", got, (workers * perWorker * time.Microsecond).Seconds())
	}
	snap := r.Snapshot()
	if len(snap.Residuals) != workers*perWorker {
		t.Fatalf("residual trace has %d points, want %d", len(snap.Residuals), workers*perWorker)
	}
}

func TestTraceBound(t *testing.T) {
	r := New()
	for i := 0; i < maxTrace+100; i++ {
		r.Residual(i, 1)
	}
	snap := r.Snapshot()
	if len(snap.Residuals) != maxTrace {
		t.Fatalf("trace length %d, want cap %d", len(snap.Residuals), maxTrace)
	}
	if got := snap.Counters["telemetry.trace_dropped"]; got != 100 {
		t.Fatalf("trace_dropped = %d, want 100", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := New()
	r.Add("c", 1)
	r.Residual(0, 2)
	r.SetLabel("a", "b")
	snap := r.Snapshot()
	snap.Counters["c"] = 99
	snap.Residuals[0].Residual = 99
	snap.Labels["a"] = "mutated"
	if r.Counter("c") != 1 {
		t.Fatal("snapshot mutation leaked into counters")
	}
	if got := r.Snapshot(); got.Residuals[0].Residual != 2 || got.Labels["a"] != "b" {
		t.Fatal("snapshot mutation leaked into recorder state")
	}
}

func TestRecorderReset(t *testing.T) {
	r := New()
	r.Add("c", 5)
	r.AddPhase(PhaseSetup, time.Second)
	r.Residual(0, 1)
	r.Reset()
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Phases != nil || snap.Residuals != nil {
		t.Fatalf("reset left state behind: %+v", snap)
	}
}

func TestAggregator(t *testing.T) {
	agg := NewAggregator()
	var nilAgg *Aggregator
	nilAgg.Record(&SolveReport{}) // must not panic
	agg.Record(nil)               // ignored
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			agg.Record(&SolveReport{
				Solver:      "s",
				Iterations:  i,
				WallSeconds: 1,
				Phases:      map[string]float64{"iterate": 0.5},
				Comm:        &CommStats{Sends: 2, BytesSent: 16},
			})
		}(i)
	}
	wg.Wait()
	if agg.Len() != 8 {
		t.Fatalf("aggregator has %d reports, want 8", agg.Len())
	}
	sum := agg.Summarize()
	if sum.Solves != 8 || sum.WallSeconds != 8 || sum.Phases["iterate"] != 4 {
		t.Fatalf("summary wrong: %+v", sum)
	}
	if sum.Comm.Sends != 16 || sum.Comm.BytesSent != 128 {
		t.Fatalf("summary comm wrong: %+v", sum.Comm)
	}

	var buf bytes.Buffer
	if err := agg.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string         `json:"schema"`
		Reports []*SolveReport `json:"reports"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("aggregator output is not valid JSON: %v", err)
	}
	if doc.Schema != "lisi.telemetry.report_set/v1" || len(doc.Reports) != 8 {
		t.Fatalf("aggregator document wrong: schema=%q n=%d", doc.Schema, len(doc.Reports))
	}
	// For finite reports the file is what encoding/json's indented
	// encoder writes.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Schema  string         `json:"schema"`
		Reports []*SolveReport `json:"reports"`
	}{"lisi.telemetry.report_set/v1", agg.Reports()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("Emit wrote\n%s\nencoding/json writes\n%s", &buf, &want)
	}
}

// TestRecentAggregator: a bounded aggregator keeps the most recent
// reports in arrival order and still summarizes every one it recorded.
func TestRecentAggregator(t *testing.T) {
	agg := NewRecentAggregator(3)
	for i := 1; i <= 5; i++ {
		agg.Record(&SolveReport{Iterations: i, WallSeconds: 0.1 * float64(i), Phases: map[string]float64{"iterate": 0.1}})
	}
	var its []int
	for _, rep := range agg.Reports() {
		its = append(its, rep.Iterations)
	}
	if fmt.Sprint(its) != "[3 4 5]" || agg.Len() != 5 {
		t.Fatalf("kept iterations %v, Len %d; want [3 4 5], 5", its, agg.Len())
	}
	wall := 0.0
	for i := 1; i <= 5; i++ {
		wall += 0.1 * float64(i) // the fold's order, one rounding per report
	}
	sum := agg.Summarize()
	if sum.Solves != 5 || sum.Iterations != 15 || sum.WallSeconds != wall {
		t.Fatalf("summary %+v, want 5 solves, 15 iterations, %v s", sum, wall)
	}
	sum.Phases["iterate"] = 99 // a caller's copy, not the running summary
	if agg.Summarize().Phases["iterate"] == 99 {
		t.Fatal("Summarize shares its phase map with the aggregator")
	}
}

// TestWriteJSONNonFinite: a report holding NaN or ±Inf (a breakdown)
// is still written whole, with null for each non-finite float.
func TestWriteJSONNonFinite(t *testing.T) {
	rep := &SolveReport{
		Schema:        SchemaSolveReport,
		FinalResidual: math.NaN(),
		WallSeconds:   math.Inf(1),
		Phases:        map[string]float64{"iterate": math.Inf(-1)},
		Comm:          &CommStats{BarrierWaitSeconds: math.NaN()},
		ResidualTrace: []ResidualPoint{{Iteration: 0, Residual: 1}, {Iteration: 1, Residual: math.NaN()}},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report does not decode: %v\n%s", err, &buf)
	}
	trace := doc["residual_trace"].([]any)
	if doc["final_residual"] != nil || doc["wall_seconds"] != nil || doc["phases"].(map[string]any)["iterate"] != nil ||
		len(trace) != 2 || trace[1].(map[string]any)["rnorm"] != nil || trace[0].(map[string]any)["rnorm"] != 1.0 {
		t.Fatalf("non-finite floats not written as null:\n%s", &buf)
	}
}

func TestCommStatsArithmetic(t *testing.T) {
	a := CommStats{Sends: 3, Recvs: 3, BytesSent: 60, BarrierEntries: 4, BarrierWaitSeconds: 1.5, BarrierParks: 3, RecvParks: 1, Collectives: 2}
	b := CommStats{Sends: 2, Recvs: 1, BytesSent: 40, BarrierEntries: 3, BarrierWaitSeconds: 0.5, BarrierParks: 1, RecvParks: 1, Collectives: 1}
	want := CommStats{Sends: 5, Recvs: 4, BytesSent: 100, BarrierEntries: 7, BarrierWaitSeconds: 2, BarrierParks: 4, RecvParks: 2, Collectives: 3}
	if got := a.Add(b); got != want {
		t.Fatalf("Add wrong: %+v, want %+v", got, want)
	}
}

func TestExpvarEndpoint(t *testing.T) {
	agg := NewAggregator()
	agg.Record(&SolveReport{Solver: "s", Iterations: 3, WallSeconds: 1})
	Publish("lisi.telemetry.test", agg)
	// Re-publishing must rebind, not panic.
	agg2 := NewAggregator()
	agg2.Record(&SolveReport{Solver: "s2", Iterations: 9, WallSeconds: 2})
	agg2.Record(&SolveReport{Solver: "s3", Iterations: 1, WallSeconds: 3})
	Publish("lisi.telemetry.test", agg2)

	ln, err := ServeExpvar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	raw, ok := doc["lisi.telemetry.test"]
	if !ok {
		t.Fatalf("expvar endpoint missing lisi.telemetry.test (have %d vars)", len(doc))
	}
	var sum Summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Solves != 2 || sum.Iterations != 10 {
		t.Fatalf("published summary = %+v, want the rebound aggregator's 2 solves / 10 iterations", sum)
	}
}
