package core

import (
	"strconv"

	"repro/internal/cca"
	"repro/internal/pmat"
	"repro/internal/slu"
	"repro/internal/telemetry"
)

// SLUComponent is the LISI solver component backed by the SuperLU-role
// slu direct solver. It demonstrates the generic parameter design
// (§6.5) accommodating direct-solver vocabulary (ordering, pivot
// threshold, equilibration, refinement) while tolerating the common
// iterative keys — a direct solver has no tolerance or iteration limit,
// so those are accepted and recorded as ignored, letting an application
// swap solver components without changing its parameter-setting code.
type SLUComponent struct {
	baseAdapter

	dist *slu.DistSolver
	opts slu.Options // the factor-affecting parameters, read by configure

	// seen is dist's set-up record as of the last (re)build, kept so the
	// next one's share can be added to the recorder.
	seen slu.SetupStats

	refineSteps int // the "refine_steps" parameter, read by configure
}

var _ SparseSolver = (*SLUComponent)(nil)
var _ cca.Component = (*SLUComponent)(nil)

// NewSLUComponent returns an unconfigured component (CCA class
// ClassSLUSolver).
func NewSLUComponent() *SLUComponent {
	return &SLUComponent{baseAdapter: newBaseAdapter("lisi.solver.superlu", checkSLUParam, false)}
}

// SetServices implements cca.Component.
func (sc *SLUComponent) SetServices(svc cca.Services) error {
	return sc.baseAdapter.setServices(svc, sc)
}

// ignoredIterativeKeys are accepted for cross-component compatibility but
// have no effect on a direct solve.
var ignoredIterativeKeys = map[string]bool{
	"solver": true, "preconditioner": true, "tol": true,
	"maxits": true, "restart": true,
}

// checkSLUParam validates a parameter of the direct solver's vocabulary.
func checkSLUParam(key, value string) int {
	switch {
	case key == "ordering":
		if _, err := slu.OrderingFromName(value); err != nil {
			return ErrBadArg
		}
	case key == "pivot_threshold":
		if v, ok := floatParam(value); !ok || v <= 0 || v > 1 {
			return ErrBadArg
		}
	case key == "equilibrate":
		if _, err := strconv.ParseBool(value); err != nil {
			return ErrBadArg
		}
	case key == "refine_steps":
		if v, err := strconv.Atoi(value); err != nil || v < 0 {
			return ErrBadArg
		}
	case ignoredIterativeKeys[key]:
		// Tolerated for seamless component swapping; GetAll reports them.
	default:
		return ErrUnknownKey
	}
	return OK
}

// GetAll reports the configuration.
func (sc *SLUComponent) GetAll() string {
	extra := map[string]string{
		"backend": "slu (SuperLU-role, direct)",
		// Rank 0 analyses and factors; other ranks report 0 here.
		"analyses":          strconv.Itoa(sc.seen.Analyses),
		"symbolic_reuses":   strconv.Itoa(sc.seen.SymbolicReuses),
		"static_refactors":  strconv.Itoa(sc.seen.StaticRefactors),
		"rowperm_fallbacks": strconv.Itoa(sc.seen.RowPermFallbacks),
	}
	for k := range sc.params {
		if ignoredIterativeKeys[k] {
			extra["ignored."+k] = sc.params[k]
		}
	}
	if sc.dist != nil {
		extra["fill_ratio"] = strconv.FormatFloat(sc.dist.FillRatio(), 'g', 4, 64)
	}
	return sc.getAll(extra)
}

// Solve implements the LISI solve on the direct backend. The
// factorization is reused across right-hand sides and across Solve calls
// (use case §5.2b) until SetupMatrix changes the matrix or Set changes a
// factor-affecting parameter; then it is redone, keeping the symbolic
// analysis when the pattern and ordering allow (use case §5.2d).
func (sc *SLUComponent) Solve(solution []float64, status []float64, numLocalRow, statusLength int) int {
	return sc.solve(sc, solution, status, numLocalRow, statusLength)
}

// configure reads the parameters (a solveHooks hook). The factor is a
// function of the matrix and of slu.Options, so a change of the options
// drops the built operator and the skeleton refactors: refine_steps
// and the ignored iterative keys change cfgVer but not the options
// value.
func (sc *SLUComponent) configure(staged) int {
	sc.refineSteps = 0
	if v, ok := sc.params["refine_steps"]; ok {
		sc.refineSteps, _ = strconv.Atoi(v)
	}
	opts := slu.DefaultOptions()
	if v, ok := sc.params["ordering"]; ok {
		opts.ColPerm, _ = slu.OrderingFromName(v)
	}
	if v, ok := sc.params["pivot_threshold"]; ok {
		opts.PivotThreshold, _ = strconv.ParseFloat(v, 64)
	}
	if v, ok := sc.params["equilibrate"]; ok {
		opts.Equilibrate, _ = strconv.ParseBool(v)
	}
	if opts != sc.opts {
		sc.opts = opts
		sc.built = staged{}
	}
	return OK
}

// rebuild factors the slot's operator. A live solver refactors: same
// pattern and ordering take the numeric phase only (§5.2d) — over the
// recorded row permutation and L/U structure while every pivot
// validates — anything else is re-analysed inside, and the L/U storage
// is refilled either way.
func (sc *SLUComponent) rebuild(op staged) (int, FailReason) {
	stopSetup := sc.rec.StartPhase(telemetry.PhaseSetup)
	var err error
	if sc.dist == nil {
		sc.dist, err = slu.NewDistSolver(op.mat, sc.opts)
	} else {
		err = sc.dist.Refactor(op.mat, sc.opts)
	}
	stopSetup()
	sc.recordSetup()
	if err != nil {
		return ErrSolveFailed, classifySolveError(err)
	}
	return OK, FailNone
}

// attach hands the factor the recorder; superlu builds no worker pool.
func (sc *SLUComponent) attach(staged) *pmat.Mat {
	sc.dist.SetRecorder(sc.rec)
	return nil
}

// solveOne runs the triangular solves and refinement on one right-hand
// side. A direct solve reports no iterations, and a failed one no
// residual.
func (sc *SLUComponent) solveOne(x, b []float64) (int, float64, FailReason) {
	res, err := sc.dist.SolveRefinedInto(x, b, sc.refineSteps)
	if err != nil {
		return 0, 0, classifySolveError(err)
	}
	return 0, res, FailNone
}

// recordSetup feeds the recorder what the set-up just run did on this
// rank: analysed or reused, replayed the factor's structure or fell back
// to the full numeric pass, and the ordering/numeric split of its
// PhaseSetup time.
func (sc *SLUComponent) recordSetup() {
	if sc.dist == nil {
		return
	}
	st := sc.dist.SetupStats()
	d := st.Sub(sc.seen)
	sc.seen = st
	sc.rec.Add("slu.analyses", int64(d.Analyses))
	sc.rec.Add("slu.symbolic_reuses", int64(d.SymbolicReuses))
	sc.rec.Add("slu.static_refactors", int64(d.StaticRefactors))
	sc.rec.Add("slu.rowperm_fallbacks", int64(d.RowPermFallbacks))
	sc.rec.Add("slu.ordering_ns", d.OrderingNs)
	sc.rec.Add("slu.numeric_ns", d.NumericNs)
}

func init() {
	Register(BackendInfo{
		Name:  "superlu",
		Class: ClassSLUSolver,
		Kind:  "direct (sparse LU)",
		Doc:   "SuperLU-role `slu` package: distributed LU factorization with reuse across repeated solves",
	}, func() SparseSolver { return NewSLUComponent() })
}
