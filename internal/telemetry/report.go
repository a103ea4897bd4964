package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/jsonw"
)

// SchemaSolveReport identifies the SolveReport JSON schema version;
// consumers should check it before interpreting a document.
const SchemaSolveReport = "lisi.telemetry.solve_report/v1"

// CommStats is the communication-layer section of a report: totals
// across all ranks of the world that executed the solve (the comm
// package produces these; telemetry only carries them so it depends on
// no runtime or solver package).
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

// WriteJSON writes r as deterministic, indented JSON followed by a
// newline — the on-disk format of a telemetry report (map keys sorted,
// so the output is diff-stable). A non-finite float is written as null.
func WriteJSON(w io.Writer, r *SolveReport) error {
	return writeIndented(w, AppendReport(nil, r))
}

// writeIndented writes the compact JSON document doc as
// json.Encoder with SetIndent("", "  ") writes it.
func writeIndented(w io.Writer, doc []byte) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, append(doc, '\n'), "", "  "); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// AppendReport appends r as compact JSON, byte for byte what
// json.Marshal writes for a finite report, with every non-finite float
// (a breakdown's NaN residual, say) written as null.
func AppendReport(b []byte, r *SolveReport) []byte {
	b = jsonw.AppendString(append(b, `{"schema":`...), r.Schema)
	b = jsonw.AppendString(append(b, `,"solver":`...), r.Solver)
	if r.Backend != "" {
		b = jsonw.AppendString(append(b, `,"backend":`...), r.Backend)
	}
	if r.Path != "" {
		b = jsonw.AppendString(append(b, `,"path":`...), r.Path)
	}
	b = jsonw.AppendInt(append(b, `,"procs":`...), r.Procs)
	if r.GlobalRows != 0 {
		b = jsonw.AppendInt(append(b, `,"global_rows":`...), r.GlobalRows)
	}
	if r.NNZ != 0 {
		b = jsonw.AppendInt(append(b, `,"nnz":`...), r.NNZ)
	}
	b = jsonw.AppendInt(append(b, `,"iterations":`...), r.Iterations)
	b = jsonw.AppendFloat(append(b, `,"final_residual":`...), r.FinalResidual)
	b = strconv.AppendBool(append(b, `,"converged":`...), r.Converged)
	b = jsonw.AppendFloat(append(b, `,"wall_seconds":`...), r.WallSeconds)
	b = jsonw.AppendMap(append(b, `,"phases":`...), r.Phases, jsonw.AppendFloat)
	if len(r.Counters) > 0 {
		b = jsonw.AppendMap(append(b, `,"counters":`...), r.Counters, jsonw.AppendInt[int64])
	}
	if c := r.Comm; c != nil {
		b = jsonw.AppendInt(append(b, `,"comm":{"sends":`...), c.Sends)
		b = jsonw.AppendInt(append(b, `,"recvs":`...), c.Recvs)
		b = jsonw.AppendInt(append(b, `,"bytes_sent":`...), c.BytesSent)
		b = jsonw.AppendInt(append(b, `,"bytes_recv":`...), c.BytesRecv)
		b = jsonw.AppendInt(append(b, `,"barrier_entries":`...), c.BarrierEntries)
		b = jsonw.AppendFloat(append(b, `,"barrier_wait_seconds":`...), c.BarrierWaitSeconds)
		b = jsonw.AppendInt(append(b, `,"barrier_parks":`...), c.BarrierParks)
		b = jsonw.AppendInt(append(b, `,"recv_parks":`...), c.RecvParks)
		b = append(jsonw.AppendInt(append(b, `,"collectives":`...), c.Collectives), '}')
	}
	if len(r.ResidualTrace) > 0 {
		b = append(b, `,"residual_trace":[`...)
		for i, p := range r.ResidualTrace {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonw.AppendInt(append(b, `{"it":`...), p.Iteration)
			b = append(jsonw.AppendFloat(append(b, `,"rnorm":`...), p.Residual), '}')
		}
		b = append(b, ']')
	}
	if len(r.Labels) > 0 {
		b = jsonw.AppendMap(append(b, `,"labels":`...), r.Labels, jsonw.AppendString)
	}
	return append(b, '}')
}
