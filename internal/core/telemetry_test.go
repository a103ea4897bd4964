package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/telemetry"
)

// TestInstrumentedSolveProducesReport runs the Figure-4 assembly with a
// recorder attached on rank 0 and checks that one LISI solve yields a
// structured report: port-overhead and solve phases, adapter counters,
// and (for iterative backends) a residual trace.
func TestInstrumentedSolveProducesReport(t *testing.T) {
	p := mesh.PaperProblem(10)
	for _, tc := range []struct {
		class     string
		iterative bool
	}{
		{ClassKSPSolver, true},
		{ClassAztecSolver, true},
		{ClassSLUSolver, false},
	} {
		w, err := comm.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		reports := make([]*telemetry.SolveReport, 2)
		if err := w.Run(func(c *comm.Comm) {
			_, driver := wire(t, c, tc.class)
			var rec *telemetry.Recorder
			if c.Rank() == 0 {
				rec = telemetry.New()
				rec.SetLabel("backend", tc.class)
			}
			driver.SetRecorder(rec)
			res, err := driver.SolveProblem(p, CSR, iterativeParams)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%s: not converged", tc.class)
			}
			if c.Rank() == 0 {
				reports[0] = rec.Report(tc.class)
			}
		}); err != nil {
			t.Fatal(err)
		}
		rep := reports[0]
		if rep == nil {
			t.Fatalf("%s: no report produced", tc.class)
		}
		if rep.Phases[string(telemetry.PhasePortOverhead)] <= 0 {
			t.Errorf("%s: port_overhead phase not recorded: %v", tc.class, rep.Phases)
		}
		if tc.iterative {
			if rep.Phases[string(telemetry.PhaseIterate)] <= 0 {
				t.Errorf("%s: iterate phase not recorded: %v", tc.class, rep.Phases)
			}
			if len(rep.ResidualTrace) == 0 {
				t.Errorf("%s: residual trace empty", tc.class)
			}
		} else if rep.Phases[string(telemetry.PhaseSetup)] <= 0 {
			t.Errorf("%s: setup phase not recorded for direct solver: %v", tc.class, rep.Phases)
		}
		for _, want := range []string{"lisi.setup_matrix_calls", "lisi.setup_rhs_calls", "lisi.solve_calls", "lisi.port_call_ns"} {
			if rep.Counters[want] <= 0 {
				t.Errorf("%s: counter %s missing: %v", tc.class, want, rep.Counters)
			}
		}
		if rep.Labels["backend"] != tc.class {
			t.Errorf("%s: backend label = %q", tc.class, rep.Labels["backend"])
		}
		// The solve is collective, so the world must have seen traffic
		// (shared-slot collectives and their barriers; p2p only on some
		// paths).
		st := w.Stats()
		if st.Collectives == 0 || st.BarrierEntries == 0 {
			t.Errorf("%s: comm stats empty after collective solve: %+v", tc.class, st)
		}
	}
}

// TestNilRecorderSolveUnchanged checks that the uninstrumented path (nil
// recorder everywhere) still solves identically — the compile-out-cheap
// guarantee.
func TestNilRecorderSolveUnchanged(t *testing.T) {
	p := mesh.PaperProblem(10)
	run(t, 2, func(c *comm.Comm) {
		_, driver := wire(t, c, ClassKSPSolver)
		driver.SetRecorder(nil)
		res, err := driver.SolveProblem(p, CSR, iterativeParams)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Iterations < 1 {
			t.Fatalf("nil-recorder solve degraded: converged=%v its=%d", res.Converged, res.Iterations)
		}
	})
}

// TestMGComponentInstrumented exercises the multigrid component's setup
// phase and cycle counters through the LISI port.
func TestMGComponentInstrumented(t *testing.T) {
	n := 15
	p := mesh.PaperProblem(n)
	w, err := comm.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	var rep *telemetry.SolveReport
	if err := w.Run(func(c *comm.Comm) {
		_, driver := wire(t, c, ClassMGSolver)
		var rec *telemetry.Recorder
		if c.Rank() == 0 {
			rec = telemetry.New()
		}
		driver.SetRecorder(rec)
		res, err := driver.SolveProblem(p, CSR, map[string]string{"tol": "1e-8"})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("mg: not converged")
		}
		if c.Rank() == 0 {
			rep = rec.Report("mg")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if rep.Phases[string(telemetry.PhaseSetup)] <= 0 {
		t.Errorf("mg: setup phase not recorded: %v", rep.Phases)
	}
	if rep.Counters["mg.cycles"] < 1 {
		t.Errorf("mg: cycle counter missing: %v", rep.Counters)
	}
	if len(rep.ResidualTrace) == 0 {
		t.Error("mg: residual trace empty")
	}
}
