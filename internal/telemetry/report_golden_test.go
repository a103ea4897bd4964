package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// goldenReport is a fully populated deterministic SolveReport; any field
// rename, tag change or ordering drift in the JSON schema shows up as a
// diff against the checked-in golden document (the schema is versioned:
// breaking changes must bump SchemaSolveReport and regenerate).
func goldenReport() *SolveReport {
	return &SolveReport{
		Schema:        SchemaSolveReport,
		Solver:        "petsc-role(ksp)",
		Backend:       "ksp (PETSc-role)",
		Path:          "cca",
		Procs:         4,
		GlobalRows:    3600,
		NNZ:           17760,
		Iterations:    27,
		FinalResidual: 4.815162342e-07,
		Converged:     true,
		WallSeconds:   0.125,
		Phases: map[string]float64{
			"setup":         0.03,
			"precond":       0.01,
			"iterate":       0.07,
			"port_overhead": 0.005,
		},
		Counters: map[string]int64{
			"lisi.setup_matrix_calls": 1,
			"lisi.solve_calls":        1,
		},
		Comm: &CommStats{
			Sends:              96,
			Recvs:              96,
			BytesSent:          46080,
			BytesRecv:          46080,
			BarrierEntries:     220,
			BarrierWaitSeconds: 0.0125,
			BarrierParks:       14,
			RecvParks:          3,
			Collectives:        108,
		},
		ResidualTrace: []ResidualPoint{
			{Iteration: 0, Residual: 1.0},
			{Iteration: 1, Residual: 0.125},
			{Iteration: 2, Residual: 4.815162342e-07},
		},
		Labels: map[string]string{
			"backend": "ksp (PETSc-role)",
			"problem": "paper-grid-60",
		},
	}
}

func TestSolveReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, goldenReport()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "solve_report.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SolveReport JSON drifted from golden schema.\n--- got ---\n%s\n--- want ---\n%s\n(if intentional, bump SchemaSolveReport and run with -update-golden)", buf.Bytes(), want)
	}
}
