package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/telemetry"
)

// backend returns the short backend tag used in report labels.
func (s Solver) backend() string {
	switch s {
	case SolverKSP:
		return "ksp"
	case SolverAztec:
		return "aztec"
	case SolverSLU:
		return "slu"
	}
	return string(s)
}

// statsToTelemetry converts the comm layer's per-world counters into the
// report form (the telemetry package is stdlib-only, so the conversion
// lives with the callers).
func statsToTelemetry(st comm.Stats) *telemetry.CommStats {
	return &telemetry.CommStats{
		Sends:              st.Sends,
		Recvs:              st.Recvs,
		BytesSent:          st.BytesSent,
		BytesRecv:          st.BytesRecv,
		BarrierEntries:     st.BarrierEntries,
		BarrierWaitSeconds: st.BarrierWait.Seconds(),
		BarrierParks:       st.BarrierParks,
		RecvParks:          st.RecvParks,
		Collectives:        st.Collectives,
	}
}

// finishReport fills the run-level fields shared by both paths.
func finishReport(r *telemetry.SolveReport, solver Solver, path string, p int, problem mesh.Problem) {
	r.Solver = string(solver)
	r.Backend = solver.backend()
	r.Path = path
	r.Procs = p
	r.GlobalRows = problem.N()
	r.NNZ = problem.NNZ()
}

// RunCCAReport executes one instrumented solve through the full CCA
// assembly: a recorder rides on rank 0's driver component, so the report
// carries the port-overhead, setup, precond and iterate phases plus the
// residual trace; comm totals are summed over all ranks after the run.
func RunCCAReport(ctx context.Context, p int, solver Solver, gridN int, params map[string]string) (*telemetry.SolveReport, error) {
	problem := mesh.PaperProblem(gridN)
	rec := telemetry.New()
	res, wall, w, err := runCCA(ctx, p, solver, problem, params, rec)
	if err != nil {
		return nil, err
	}
	r := rec.Report(string(solver))
	finishReport(r, solver, "cca", p, problem)
	r.Iterations = res.Iterations
	r.FinalResidual = res.Residual
	r.Converged = res.Converged
	r.WallSeconds = wall
	r.Comm = statsToTelemetry(w.Stats())
	return r, nil
}

// RunNonCCAReport executes the identical solve through direct native
// calls with the same instrumentation, producing the baseline report the
// CCA run is compared against.
func RunNonCCAReport(ctx context.Context, p int, solver Solver, gridN int, params map[string]string) (*telemetry.SolveReport, error) {
	problem := mesh.PaperProblem(gridN)
	rec := telemetry.New()
	iters, wall, w, err := runNative(ctx, p, solver, problem, params, rec)
	if err != nil {
		return nil, err
	}
	r := rec.Report(string(solver))
	finishReport(r, solver, "noncca", p, problem)
	r.Iterations = iters
	r.Converged = true
	r.WallSeconds = wall
	if tr := r.ResidualTrace; len(tr) > 0 {
		r.FinalResidual = tr[len(tr)-1].Residual
	}
	r.Comm = statsToTelemetry(w.Stats())
	return r, nil
}

// Attribution is one solver's CCA-vs-NonCCA overhead decomposition: the
// paper reports the total difference (Figure 5 / Table 1); the telemetry
// layer splits it into adapter copying (port_overhead), port dispatch
// (driver port-call wall time minus the adapter's recorded conversion
// work), and the phase-by-phase remainder.
type Attribution struct {
	Solver      Solver
	CCA, NonCCA *telemetry.SolveReport
}

// Overhead is the headline CCA−NonCCA wall-clock difference in seconds.
func (a Attribution) Overhead() float64 { return a.CCA.WallSeconds - a.NonCCA.WallSeconds }

// PortOverhead is the adapter's data-conversion time on the CCA path.
func (a Attribution) PortOverhead() float64 {
	return a.CCA.Phases[string(telemetry.PhasePortOverhead)]
}

// Dispatch is the pre-solve port-call wall time not accounted for by
// adapter conversion: interface indirection, validation and staging.
func (a Attribution) Dispatch() float64 {
	d := float64(a.CCA.Counters["lisi.port_call_ns"])/1e9 - a.PortOverhead()
	if d < 0 {
		return 0
	}
	return d
}

// CollectAttribution runs both paths for every solver backend on p
// simulated processors and records all reports into the aggregator. On
// error — in particular on ctx cancellation — the attributions completed
// so far are returned alongside the error.
func CollectAttribution(ctx context.Context, agg *telemetry.Aggregator, p, gridN, runs int, params map[string]string) ([]Attribution, error) {
	var out []Attribution
	for _, s := range Solvers() {
		var ccaRep, nonRep *telemetry.SolveReport
		for r := 0; r < runs || r == 0; r++ {
			cr, err := RunCCAReport(ctx, p, s, gridN, params)
			if err != nil {
				return out, fmt.Errorf("bench: telemetry %s (CCA): %w", s, err)
			}
			nr, err := RunNonCCAReport(ctx, p, s, gridN, params)
			if err != nil {
				return out, fmt.Errorf("bench: telemetry %s (NonCCA): %w", s, err)
			}
			// Keep the fastest pair: repeated runs exist to shed scheduler
			// noise, and minima are the most stable location statistic for
			// short in-process benchmarks.
			if ccaRep == nil || cr.WallSeconds < ccaRep.WallSeconds {
				ccaRep = cr
			}
			if nonRep == nil || nr.WallSeconds < nonRep.WallSeconds {
				nonRep = nr
			}
		}
		agg.Record(ccaRep)
		agg.Record(nonRep)
		out = append(out, Attribution{Solver: s, CCA: ccaRep, NonCCA: nonRep})
	}
	return out, nil
}

// FormatAttribution renders the per-phase CCA-vs-NonCCA comparison for
// every backend — the telemetry-layer refinement of Figure 5.
func FormatAttribution(atts []Attribution) string {
	var b strings.Builder
	b.WriteString("CCA-vs-NonCCA overhead attribution (seconds)\n")
	fmt.Fprintf(&b, "%-22s %-5s %-10s %-10s %-10s %-10s %-10s %-10s %-10s\n",
		"solver", "path", "wall", "setup", "precond", "iterate", "portovhd", "dispatch", "overhead")
	for _, a := range atts {
		for _, r := range []*telemetry.SolveReport{a.CCA, a.NonCCA} {
			fmt.Fprintf(&b, "%-22s %-5s %-10.4f %-10.4f %-10.4f %-10.4f",
				a.Solver, r.Path, r.WallSeconds,
				r.Phases[string(telemetry.PhaseSetup)],
				r.Phases[string(telemetry.PhasePrecond)],
				r.Phases[string(telemetry.PhaseIterate)])
			if r.Path == "cca" {
				fmt.Fprintf(&b, " %-10.4f %-10.4f %-10.4f\n",
					a.PortOverhead(), a.Dispatch(), a.Overhead())
			} else {
				fmt.Fprintf(&b, " %-10s %-10s %-10s\n", "-", "-", "-")
			}
		}
	}
	return b.String()
}
