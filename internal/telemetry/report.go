package telemetry

import (
	"encoding/json"
	"io"
)

// SchemaSolveReport identifies the SolveReport JSON schema version;
// consumers should check it before interpreting a document.
const SchemaSolveReport = "lisi.telemetry.solve_report/v1"

// CommStats is the communication-layer section of a report: totals
// across all ranks of the world that executed the solve (the comm
// package produces these; telemetry only carries them so it stays free
// of intra-repo dependencies).
type CommStats struct {
	Sends              int64   `json:"sends"`
	Recvs              int64   `json:"recvs"`
	BytesSent          int64   `json:"bytes_sent"`
	BytesRecv          int64   `json:"bytes_recv"`
	BarrierEntries     int64   `json:"barrier_entries"`
	BarrierWaitSeconds float64 `json:"barrier_wait_seconds"`
	BarrierParks       int64   `json:"barrier_parks"` // barrier waits that blocked; entries − parks were met polling
	RecvParks          int64   `json:"recv_parks"`    // receive waits that blocked
	Collectives        int64   `json:"collectives"`
}

// Add returns the element-wise sum s + o.
func (s CommStats) Add(o CommStats) CommStats {
	return CommStats{
		Sends:              s.Sends + o.Sends,
		Recvs:              s.Recvs + o.Recvs,
		BytesSent:          s.BytesSent + o.BytesSent,
		BytesRecv:          s.BytesRecv + o.BytesRecv,
		BarrierEntries:     s.BarrierEntries + o.BarrierEntries,
		BarrierWaitSeconds: s.BarrierWaitSeconds + o.BarrierWaitSeconds,
		BarrierParks:       s.BarrierParks + o.BarrierParks,
		RecvParks:          s.RecvParks + o.RecvParks,
		Collectives:        s.Collectives + o.Collectives,
	}
}

// SolveReport is the structured outcome of one solve through the LISI
// port (or the NonCCA baseline): identification, convergence, per-phase
// time attribution, counters, comm totals and the residual trace.
type SolveReport struct {
	Schema        string             `json:"schema"`
	Solver        string             `json:"solver"`
	Backend       string             `json:"backend,omitempty"`
	Path          string             `json:"path,omitempty"` // "cca" or "noncca"
	Procs         int                `json:"procs"`
	GlobalRows    int                `json:"global_rows,omitempty"`
	NNZ           int                `json:"nnz,omitempty"`
	Iterations    int                `json:"iterations"`
	FinalResidual float64            `json:"final_residual"`
	Converged     bool               `json:"converged"`
	WallSeconds   float64            `json:"wall_seconds"`
	Phases        map[string]float64 `json:"phases"`
	Counters      map[string]int64   `json:"counters,omitempty"`
	Comm          *CommStats         `json:"comm,omitempty"`
	ResidualTrace []ResidualPoint    `json:"residual_trace,omitempty"`
	Labels        map[string]string  `json:"labels,omitempty"`
}

// Report assembles a SolveReport from the recorder's snapshot. The
// caller fills identification and convergence fields the recorder does
// not know (solver, procs, iterations, wall time, comm stats).
func (r *Recorder) Report(solver string) *SolveReport {
	snap := r.Snapshot()
	rep := &SolveReport{
		Schema: SchemaSolveReport,
		Solver: solver,
		Phases: make(map[string]float64, len(snap.Phases)),
	}
	for p, d := range snap.Phases {
		rep.Phases[string(p)] = d.Seconds()
	}
	if len(snap.Counters) > 0 {
		rep.Counters = snap.Counters
	}
	rep.ResidualTrace = snap.Residuals
	if len(snap.Labels) > 0 {
		rep.Labels = snap.Labels
		if b, ok := snap.Labels["backend"]; ok {
			rep.Backend = b
		}
	}
	return rep
}

// WriteJSON writes v as deterministic, indented JSON followed by a
// newline — the on-disk format of every telemetry artifact
// (encoding/json sorts map keys, so the output is diff-stable).
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
