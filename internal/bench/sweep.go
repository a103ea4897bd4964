package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// The sweep harness runs {backend × preconditioner × problem family}
// over the workload corpus and reports accuracy metrics — the true
// relative residual recomputed from A/x/b, not just the solver's own
// claim — alongside wall time, in the style of the paper's
// Figure 5 / Table 1 artifacts extended to structurally diverse
// operators (ROADMAP item 4).

// SweepSchema identifies the JSON report layout; CI gates on it.
const SweepSchema = "lisi.bench.sweep/v1"

// SweepFamily is one problem family: a global operator, a right-hand
// side, and the backends able to solve it (multigrid needs the n² rows
// of an odd n×n grid, so only the stencil family lists it).
type SweepFamily struct {
	Name     string
	Kind     string // "stencil2d", "fem3d" or "matrixmarket"
	Matrix   *sparse.CSR
	RHS      []float64
	Backends []string
}

// StencilFamily builds the paper's 2D convection-diffusion stencil
// family on an n×n interior grid (n odd so mg can coarsen).
func StencilFamily(n int) (SweepFamily, error) {
	p := mesh.PaperProblem(n)
	a, b, err := p.GenerateGlobal()
	if err != nil {
		return SweepFamily{}, err
	}
	return SweepFamily{
		Name:     fmt.Sprintf("stencil2d-%d", n),
		Kind:     "stencil2d",
		Matrix:   a,
		RHS:      b,
		Backends: []string{"petsc", "trilinos", "superlu", "mg"},
	}, nil
}

// FEMFamily builds the 3D unstructured-FEM family from the given
// generator instance, with its natural load vector.
func FEMFamily(p mesh.FEMProblem) (SweepFamily, error) {
	a, b, err := p.GenerateGlobal()
	if err != nil {
		return SweepFamily{}, err
	}
	return SweepFamily{
		Name:     fmt.Sprintf("fem3d-%dx%dx%d", p.Nx, p.Ny, p.Nz),
		Kind:     "fem3d",
		Matrix:   a,
		RHS:      b,
		Backends: []string{"petsc", "trilinos", "superlu"},
	}, nil
}

// MMFamily ingests a Matrix Market file as a problem family with an
// all-ones right-hand side (the convention for exchange-format
// operators that ship without one).
func MMFamily(name, path string) (SweepFamily, error) {
	f, err := os.Open(path)
	if err != nil {
		return SweepFamily{}, err
	}
	defer f.Close()
	a, err := sparse.ReadMatrixMarket(f)
	if err != nil {
		return SweepFamily{}, fmt.Errorf("bench: %s: %w", path, err)
	}
	if a.Rows != a.Cols {
		return SweepFamily{}, fmt.Errorf("bench: %s: %dx%d matrix is not square", path, a.Rows, a.Cols)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	return SweepFamily{
		Name:     "mm:" + name,
		Kind:     "matrixmarket",
		Matrix:   a,
		RHS:      b,
		Backends: []string{"petsc", "trilinos", "superlu"},
	}, nil
}

// CorpusFamilies builds the canonical sweep input: the stencil and FEM
// generator families plus every .mtx file in dir (sorted by name). A dir
// that cannot be read is an error, not an empty corpus.
func CorpusFamilies(dir string) ([]SweepFamily, error) {
	if _, err := os.ReadDir(dir); err != nil {
		return nil, err
	}
	stencil, err := StencilFamily(9)
	if err != nil {
		return nil, err
	}
	fem, err := FEMFamily(mesh.DefaultFEMProblem(4, 7))
	if err != nil {
		return nil, err
	}
	families := []SweepFamily{stencil, fem}
	matches, err := filepath.Glob(filepath.Join(dir, "*.mtx"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	for _, path := range matches {
		name := strings.TrimSuffix(filepath.Base(path), ".mtx")
		fam, err := MMFamily(name, path)
		if err != nil {
			return nil, err
		}
		families = append(families, fam)
	}
	return families, nil
}

// SweepConfig controls one sweep run.
type SweepConfig struct {
	Procs   int     // simulated ranks per cell (mg cells snap to a grid-aligned count)
	Workers int     // intra-rank worker-pool size
	Tol     float64 // convergence tolerance passed to every backend
	MaxIts  int     // iteration cap (mapped to "cycles" for mg)
}

// DefaultSweepConfig returns the corpus smoke configuration.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Procs:   3,
		Workers: 1,
		Tol:     1e-8,
		MaxIts:  2000,
	}
}

// SweepCell is one {family × backend × preconditioner} run.
type SweepCell struct {
	Family  string `json:"family"`
	Backend string `json:"backend"`
	Precond string `json:"preconditioner"`
	Procs   int    `json:"procs"`
	Workers int    `json:"workers"`
	N       int    `json:"n"`
	NNZ     int    `json:"nnz"`

	Converged  bool   `json:"converged"`
	Iterations int    `json:"iterations"`
	FailReason string `json:"fail_reason,omitempty"`
	Error      string `json:"error,omitempty"`

	WallSeconds float64 `json:"wall_seconds"`
	// ReportedResidual is what the backend claims; TrueResidual is
	// ‖b−Ax‖₂ recomputed from the global operator, and
	// RelativeResidual normalizes it by ‖b‖₂ — the accuracy columns.
	ReportedResidual float64 `json:"reported_residual"`
	TrueResidual     float64 `json:"true_residual"`
	RelativeResidual float64 `json:"relative_residual"`
	// ChosenFormat is the SpMV kernel the format rule bound (the
	// sparse.format telemetry label); empty for the direct solver,
	// which has no distributed product.
	ChosenFormat string `json:"chosen_format"`
}

// ID names a cell in failure lists and logs.
func (c SweepCell) ID() string {
	return fmt.Sprintf("%s/%s/%s", c.Family, c.Backend, c.Precond)
}

// SweepFamilyInfo summarizes one family in the report.
type SweepFamilyInfo struct {
	Name     string   `json:"name"`
	Kind     string   `json:"kind"`
	N        int      `json:"n"`
	NNZ      int      `json:"nnz"`
	Backends []string `json:"backends"`
}

// SweepReport is the JSON artifact; CI validates it against
// SweepSchema.
type SweepReport struct {
	Schema   string            `json:"schema"`
	Procs    int               `json:"procs"`
	Workers  int               `json:"workers"`
	Tol      float64           `json:"tol"`
	MaxIts   int               `json:"maxits"`
	Families []SweepFamilyInfo `json:"families"`
	Cells    []SweepCell       `json:"cells"`
}

// Failed lists the cells that did not converge (or errored), in run
// order. A non-empty list is the typed-failure condition lisi-bench
// maps to its distinct exit status.
func (r *SweepReport) Failed() []string {
	var out []string
	for _, c := range r.Cells {
		if !c.Converged {
			out = append(out, c.ID())
		}
	}
	return out
}

// sweepMethod is one preconditioner configuration of a backend.
type sweepMethod struct {
	precond string
	params  map[string]string
}

// sweepMethods returns the preconditioner axis for a backend. Every
// parameter set stays inside the backend's validated vocabulary —
// Session.OpenSession rejects unknown keys for anything but workers.
func sweepMethods(backend string, cfg SweepConfig) []sweepMethod {
	tol := strconv.FormatFloat(cfg.Tol, 'g', -1, 64)
	its := strconv.Itoa(cfg.MaxIts)
	switch backend {
	case "petsc":
		return []sweepMethod{
			{"ilu", map[string]string{
				"solver": "gmres", "preconditioner": "ilu", "restart": "30", "tol": tol, "maxits": its}},
			{"jacobi", map[string]string{
				"solver": "gmres", "preconditioner": "jacobi", "restart": "30", "tol": tol, "maxits": its}},
		}
	case "trilinos":
		return []sweepMethod{
			{"domdecomp", map[string]string{
				"solver": "gmres", "preconditioner": "domdecomp", "tol": tol, "maxits": its}},
			{"jacobi", map[string]string{
				"solver": "gmres", "preconditioner": "jacobi", "tol": tol, "maxits": its}},
		}
	case "superlu":
		return []sweepMethod{
			{"direct", map[string]string{"refine_steps": "1", "tol": tol, "maxits": its}},
		}
	case "mg":
		return []sweepMethod{
			{"mg", map[string]string{"tol": tol, "cycles": its}},
		}
	}
	return nil
}

// RunSweep executes the full sweep. Cells that fail to converge are
// recorded in the report — never dropped — and surface through
// Report.Failed(); only infrastructure errors (a broken world, ctx
// cancellation) abort the sweep, returning the cells completed so far
// alongside the error.
func RunSweep(ctx context.Context, families []SweepFamily, cfg SweepConfig) (*SweepReport, error) {
	if cfg.Procs < 1 {
		cfg.Procs = 1
	}
	report := &SweepReport{
		Schema:  SweepSchema,
		Procs:   cfg.Procs,
		Workers: cfg.Workers,
		Tol:     cfg.Tol,
		MaxIts:  cfg.MaxIts,
	}
	for _, fam := range families {
		report.Families = append(report.Families, SweepFamilyInfo{
			Name: fam.Name, Kind: fam.Kind, N: fam.Matrix.Rows, NNZ: fam.Matrix.NNZ(),
			Backends: fam.Backends,
		})
	}
	for _, fam := range families {
		for _, backend := range fam.Backends {
			for _, method := range sweepMethods(backend, cfg) {
				if err := ctx.Err(); err != nil {
					return report, err
				}
				cell, err := runSweepCell(ctx, fam, backend, method, cfg)
				if err != nil {
					return report, fmt.Errorf("bench: sweep %s: %w", cell.ID(), err)
				}
				report.Cells = append(report.Cells, cell)
			}
		}
	}
	return report, nil
}

// runSweepCell solves one cell on a fresh world. Solver-level failures
// (non-convergence, typed breakdowns) land in the cell; the returned
// error is reserved for infrastructure problems.
func runSweepCell(ctx context.Context, fam SweepFamily, backend string, method sweepMethod, cfg SweepConfig) (SweepCell, error) {
	procs := cfg.Procs
	cell := SweepCell{
		Family:  fam.Name,
		Backend: backend,
		Precond: method.precond,
		Procs:   procs,
		Workers: cfg.Workers,
		N:       fam.Matrix.Rows,
		NNZ:     fam.Matrix.NNZ(),
	}
	w, err := newWorld(procs)
	if err != nil {
		return cell, err
	}
	var xGlobal []float64
	runErr := w.RunContext(ctx, func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, fam.Matrix.Rows)
		if err != nil {
			if c.Rank() == 0 {
				cell.Error = err.Error()
			}
			return
		}
		localA := fam.Matrix.SubMatrix(l.Start, l.Start+l.LocalN)
		localB := fam.RHS[l.Start : l.Start+l.LocalN]
		var rec *telemetry.Recorder
		if c.Rank() == 0 {
			rec = telemetry.New()
		}
		s, err := core.OpenSession(backend, c, core.SessionOptions{
			Recorder: rec,
			Params:   method.params,
			Workers:  cfg.Workers,
		})
		if err != nil {
			if c.Rank() == 0 {
				cell.Error = err.Error()
			}
			return
		}
		defer s.Close()
		start := time.Now()
		if err := s.Setup(l, localA); err != nil {
			if c.Rank() == 0 {
				cell.Error = err.Error()
			}
			return
		}
		if err := s.SetupRHS(localB, 1); err != nil {
			if c.Rank() == 0 {
				cell.Error = err.Error()
			}
			return
		}
		x := make([]float64, l.LocalN)
		res, solveErr := s.Solve(ctx, x)
		wall := time.Since(start)
		if res.Aborted {
			if c.Rank() == 0 {
				cell.Error = "aborted: " + res.AbortReason
			}
			return // poisoned world: no gather possible
		}
		full := pmat.Gather(l, 0, x)
		if c.Rank() == 0 {
			xGlobal = full
			cell.WallSeconds = wall.Seconds()
			cell.Converged = res.Converged
			cell.Iterations = res.Iterations
			cell.ReportedResidual = res.Residual
			if res.FailReason != core.FailNone {
				cell.FailReason = res.FailReason.String()
			}
			if solveErr != nil && !res.Converged {
				cell.Error = solveErr.Error()
			}
			if rep := rec.Report(backend); rep != nil {
				cell.ChosenFormat = strings.ToLower(rep.Labels["sparse.format"])
			}
		}
	})
	if runErr != nil {
		return cell, runErr
	}
	if xGlobal != nil {
		cell.TrueResidual, cell.RelativeResidual = trueResidual(fam.Matrix, fam.RHS, xGlobal)
	}
	return cell, nil
}

// trueResidual recomputes ‖b−Ax‖₂ and its ‖b‖₂-relative form from the
// global system — the accuracy ground truth, independent of whatever
// norm the backend iterated on.
func trueResidual(a *sparse.CSR, b, x []float64) (abs, rel float64) {
	r := make([]float64, len(b))
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	abs = sparse.Norm2(r)
	if nb := sparse.Norm2(b); nb > 0 {
		rel = abs / nb
	} else {
		rel = abs
	}
	return abs, rel
}

// FormatSweepMarkdown renders the report as a Markdown document: one
// coverage summary plus one table per family.
func FormatSweepMarkdown(r *SweepReport) string {
	var sb strings.Builder
	sb.WriteString("# LISI workload sweep\n\n")
	fmt.Fprintf(&sb, "Schema `%s` — %d famil%s, %d cells, procs=%d, workers=%d, tol=%g, maxits=%d.\n\n",
		r.Schema, len(r.Families), plural(len(r.Families), "y", "ies"), len(r.Cells), r.Procs, r.Workers, r.Tol, r.MaxIts)
	if failed := r.Failed(); len(failed) > 0 {
		fmt.Fprintf(&sb, "**%d cell(s) failed to converge:** %s\n\n", len(failed), strings.Join(failed, ", "))
	}
	for _, fam := range r.Families {
		fmt.Fprintf(&sb, "## %s (%s, n=%d, nnz=%d)\n\n", fam.Name, fam.Kind, fam.N, fam.NNZ)
		sb.WriteString("| backend | precond | chosen | procs | iters | wall (s) | reported resid | true resid | rel resid | ok |\n")
		sb.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
		for _, c := range r.Cells {
			if c.Family != fam.Name {
				continue
			}
			ok := "yes"
			if !c.Converged {
				ok = "NO"
				if c.FailReason != "" {
					ok += " (" + c.FailReason + ")"
				}
			}
			fmt.Fprintf(&sb, "| %s | %s | %s | %d | %d | %.4g | %.3e | %.3e | %.3e | %s |\n",
				c.Backend, c.Precond, c.ChosenFormat, c.Procs, c.Iterations,
				c.WallSeconds, c.ReportedResidual, c.TrueResidual, c.RelativeResidual, ok)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// SweepAccuracyBound sanity-checks a converged cell's claim: the true
// relative residual should not exceed the requested tolerance by more
// than slack orders of magnitude (backends iterate on preconditioned
// or differently-normalized norms, so an exact match is not expected).
func SweepAccuracyBound(c SweepCell, tol, slack float64) error {
	if !c.Converged {
		return nil
	}
	if math.IsNaN(c.RelativeResidual) || c.RelativeResidual > tol*slack {
		return fmt.Errorf("bench: %s: relative residual %g exceeds tol %g × slack %g",
			c.ID(), c.RelativeResidual, tol, slack)
	}
	return nil
}
