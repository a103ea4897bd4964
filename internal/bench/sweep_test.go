package bench

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/mesh"
)

// sweepTestConfig keeps in-process sweep tests fast: a small iteration
// budget.
func sweepTestConfig() SweepConfig {
	cfg := DefaultSweepConfig()
	cfg.MaxIts = 500
	return cfg
}

// TestSweepReportSchema is the sweep-report schema test of the golden
// conformance suite: the JSON artifact carries the schema tag, every
// cell has the accuracy columns filled, and converged cells actually
// meet the accuracy they claim.
func TestSweepReportSchema(t *testing.T) {
	stencil, err := StencilFamily(9)
	if err != nil {
		t.Fatal(err)
	}
	fem, err := FEMFamily(mesh.DefaultFEMProblem(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	mm, err := MMFamily("lap49_sym", "../../testdata/corpus/lap49_sym.mtx")
	if err != nil {
		t.Fatal(err)
	}
	families := []SweepFamily{stencil, fem, mm}
	cfg := sweepTestConfig()
	report, err := RunSweep(context.Background(), families, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Schema != SweepSchema {
		t.Fatalf("schema %q, want %q", report.Schema, SweepSchema)
	}
	if len(report.Families) != 3 {
		t.Fatalf("%d families, want 3", len(report.Families))
	}
	// stencil: petsc(2)+trilinos(2)+superlu(1)+mg(1) = 6 cells;
	// fem/mm: 5 cells each (no mg).
	if want := 6 + 5 + 5; len(report.Cells) != want {
		t.Fatalf("%d cells, want %d", len(report.Cells), want)
	}
	backends := map[string]bool{}
	for _, c := range report.Cells {
		backends[c.Backend] = true
		if c.N <= 0 || c.NNZ <= 0 {
			t.Fatalf("%s: empty dimensions", c.ID())
		}
		// Every interior block here stores several entries per row, so
		// the format rule binds SELL; the direct solver has no
		// distributed product to bind.
		wantFormat := "sell"
		if c.Backend == "superlu" {
			wantFormat = ""
		}
		if c.ChosenFormat != wantFormat {
			t.Fatalf("%s: chosen format %q, want %q", c.ID(), c.ChosenFormat, wantFormat)
		}
		if !c.Converged {
			t.Fatalf("%s: did not converge: %s %s", c.ID(), c.FailReason, c.Error)
		}
		if c.TrueResidual <= 0 || c.RelativeResidual <= 0 {
			t.Fatalf("%s: accuracy columns not recomputed (true=%g rel=%g)",
				c.ID(), c.TrueResidual, c.RelativeResidual)
		}
		// Backends iterate on their own norms; two orders of magnitude
		// of slack still pins "converged means actually accurate".
		if err := SweepAccuracyBound(c, cfg.Tol, 100); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []string{"petsc", "trilinos", "superlu", "mg"} {
		if !backends[b] {
			t.Fatalf("backend %s missing from sweep", b)
		}
	}

	// The JSON wire form carries every schema-mandated key.
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "procs", "workers", "tol", "maxits", "families", "cells"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("JSON report missing key %q", key)
		}
	}
	cell := decoded["cells"].([]any)[0].(map[string]any)
	for _, key := range []string{
		"family", "backend", "preconditioner", "procs", "workers", "n", "nnz",
		"converged", "iterations", "wall_seconds",
		"reported_residual", "true_residual", "relative_residual", "chosen_format",
	} {
		if _, ok := cell[key]; !ok {
			t.Fatalf("JSON cell missing key %q", key)
		}
	}
}

// TestSweepRecordsNonConvergence: a cell that fails to converge is
// recorded in place — the table stays complete, the failure is typed,
// and Failed() surfaces it for the CLI's distinct exit status.
func TestSweepRecordsNonConvergence(t *testing.T) {
	stencil, err := StencilFamily(9)
	if err != nil {
		t.Fatal(err)
	}
	// Iterative backends only: one GMRES iteration cannot reach 1e-12.
	stencil.Backends = []string{"petsc", "trilinos"}
	cfg := sweepTestConfig()
	cfg.Tol = 1e-12
	cfg.MaxIts = 1
	report, err := RunSweep(context.Background(), []SweepFamily{stencil}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4; len(report.Cells) != want {
		t.Fatalf("%d cells, want %d — failures must not truncate the table", len(report.Cells), want)
	}
	failed := report.Failed()
	if len(failed) != len(report.Cells) {
		t.Fatalf("Failed() lists %d of %d unconverged cells", len(failed), len(report.Cells))
	}
	for _, c := range report.Cells {
		if c.Converged {
			t.Fatalf("%s: converged in one iteration at 1e-12?", c.ID())
		}
		if c.FailReason == "" {
			t.Fatalf("%s: unconverged cell has no typed fail reason", c.ID())
		}
	}
	md := FormatSweepMarkdown(report)
	if !strings.Contains(md, "failed to converge") {
		t.Fatalf("markdown lacks the failure banner:\n%s", md)
	}
}

// TestSweepMarkdownLayout: one table per family with the accuracy
// columns present.
func TestSweepMarkdownLayout(t *testing.T) {
	mm, err := MMFamily("dd40_gen", "../../testdata/corpus/dd40_gen.mtx")
	if err != nil {
		t.Fatal(err)
	}
	mm.Backends = []string{"superlu"}
	report, err := RunSweep(context.Background(), []SweepFamily{mm}, sweepTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	md := FormatSweepMarkdown(report)
	for _, want := range []string{"## mm:dd40_gen", "| true resid |", "| superlu |", SweepSchema} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}
