package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/aztec"
	"repro/internal/cca"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/ksp"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// epochSamples holds one epoch's samples per metric name. The reported
// value of a metric is taken over the epochs' medians (estimator.go).
type epochSamples map[string][]float64

func (s epochSamples) add(name string, v float64) { s[name] = append(s[name], v) }

// workload is one set of inputs the benchmark runs. An epoch is
// self-contained: it builds a fresh world and session (or service),
// runs the workload's fixed schedule and tears everything down.
type workload interface {
	info() workloadInfo
	// epoch runs one epoch. The error is an infrastructure failure that
	// aborts the run; a wrong or failed solve is counted by the checker
	// instead and yields no sample.
	epoch(ctx epochCtx) (epochSamples, error)
	// probe describes the workload's own operator to the layer probes.
	probe() probeInput
}

// epochCtx is what the harness hands an epoch. The end-to-end pass sets
// only e and ck: tracing off, nil recorder.
type epochCtx struct {
	e  int
	ck *checker
	// tr, when set, records one span per call into a layer and attaches
	// a telemetry recorder to the session (or telemetry: true requests).
	tr *tracer
	// allocs adds the per-solve allocation count to an untraced epoch
	// (a recorder's residual trace allocates, so it cannot be traced).
	allocs bool
}

type workloadInfo struct {
	Name    string         `json:"name"`
	Ranks   int            `json:"ranks"`
	Workers int            `json:"workers"`
	Sizes   map[string]int `json:"sizes"`
	// EpochSeconds is the nominal cost of one epoch on the reference
	// host; it turns -seconds into a fixed epoch count (epochsFor).
	EpochSeconds float64 `json:"epoch_seconds"`
}

// abKind selects how a session workload measures overhead_ratio.
type abKind int

const (
	// abColdCCA: cold solve through the full CCA assembly (framework,
	// core.DriverComponent, SparseSolver port; mesh generation included
	// on both sides) ÷ the native program. The paper's Table 1 quantity.
	abColdCCA abKind = iota
	// abColdPort: cold solve through the port with the benchmark as
	// driver component ÷ native calls, both on the pre-assembled operator.
	abColdPort
	// abWarm: warm Session.Solve ÷ native solve against live factors,
	// in batches — where the fixed per-call port cost is the largest share.
	abWarm
)

// sessionWorkload is the shape shared by the three library workloads:
// cold cycle → steady phase of warm solves and refreshes on the live
// session → interleaved A/B against the native program.
type sessionWorkload struct {
	workloadInfo
	backend string
	params  map[string]string // LISI parameters of the session
	tol     float64
	seed    int64
	spd     bool

	// global/rhs are the harness's copy of operator version 1 and the
	// base right-hand side; versions adds every refreshed operator the
	// schedule reaches. The program never sees these: each rank
	// generates (genLocal) or is handed only its own rows.
	global   *sparse.CSR
	rhs      []float64
	versions map[int]*sparse.CSR
	genLocal func(l *pmat.Layout) (*sparse.CSR, []float64, error)
	genSpan  string // span name of genLocal: the mesh-layer call it makes
	problem  mesh.Problem

	sched   schedule
	batch   int // warm solves per timed batch (1 unless sub-millisecond)
	ab      abKind
	abPairs int // A/B pairs (abWarm: batch pairs) per epoch
	native  func() nativeSolver
}

func (w *sessionWorkload) info() workloadInfo { return w.workloadInfo }

func (w *sessionWorkload) probe() probeInput {
	return probeInput{
		global: w.global, rhs: w.rhs, spd: w.spd, ranks: w.Ranks, tol: w.tol, seed: w.seed,
		gridN: w.Sizes["grid_n"], femN: w.Sizes["fem_n"],
	}
}

// finish derives the harness-side operator versions once the schedule
// is known.
func (w *sessionWorkload) finish() {
	w.versions = map[int]*sparse.CSR{1: w.global}
	for _, o := range w.sched {
		if _, ok := w.versions[o.Version]; !ok {
			w.versions[o.Version] = withValues(w.global, perturbValues(w.global, 0, w.seed, o.Version))
		}
	}
}

func newStencilGMRES(seed int64, quick bool) *sessionWorkload {
	gridN, warm, refreshes := 100, 8, 2
	if quick {
		gridN, warm, refreshes = 16, 3, 1
	}
	p := mesh.PaperProblem(gridN)
	w := &sessionWorkload{
		workloadInfo: workloadInfo{
			Name: "stencil-gmres", Ranks: 2, Workers: 1, EpochSeconds: 1.55,
			Sizes: map[string]int{"grid_n": gridN, "n": p.N(), "nnz": p.NNZ(), "warm_per_epoch": warm, "refresh_per_epoch": refreshes},
		},
		backend: "petsc",
		params: map[string]string{
			"solver": "gmres", "preconditioner": "ilu", "restart": "30", "tol": "1e-6", "maxits": strconv.Itoa(maxIterations),
		},
		tol: 1e-6, seed: seed,
		genLocal: p.GenerateLocal, genSpan: "mesh.Problem.GenerateLocal", problem: p,
		batch: 1, ab: abColdCCA, abPairs: 2,
		native: func() nativeSolver { return &kspNative{tol: 1e-6, pc: ksp.PCILU} },
	}
	w.global, w.rhs = mustGlobal(p.GenerateGlobal())
	w.sched = solverSchedule(newRNG(seed, w.Name), p.N(), warm, refreshes)
	w.finish()
	return w
}

func newFEMCG(seed int64, quick bool) *sessionWorkload {
	femN, warm, refreshes := 16, 16, 2
	if quick {
		femN, warm, refreshes = 6, 3, 1
	}
	p := mesh.DefaultFEMProblem(femN, seed)
	w := &sessionWorkload{
		workloadInfo: workloadInfo{
			Name: "fem-cg", Ranks: 1, Workers: 2, EpochSeconds: 1.0,
			Sizes: map[string]int{"fem_n": femN, "n": p.N(), "warm_per_epoch": warm, "refresh_per_epoch": refreshes},
		},
		backend: "trilinos",
		params: map[string]string{
			"solver": "cg", "preconditioner": "ilut", "tol": "1e-8", "maxits": strconv.Itoa(maxIterations),
		},
		tol: 1e-8, seed: seed, spd: true,
		genLocal: p.GenerateLocal, genSpan: "mesh.FEMProblem.GenerateLocal",
		batch: 1, ab: abColdPort, abPairs: 1,
		native: func() nativeSolver { return &aztecNative{tol: 1e-8, solver: aztec.AZCG, workers: 2} },
	}
	w.global, w.rhs = mustGlobal(p.GenerateGlobal())
	w.Sizes["nnz"] = w.global.NNZ()
	w.sched = solverSchedule(newRNG(seed, w.Name), p.N(), warm, refreshes)
	w.finish()
	return w
}

func newDirectRefactor(seed int64, quick bool) *sessionWorkload {
	gridN, warm, refreshes, batch, pairs := 100, 200, 2, 40, 5
	if quick {
		gridN, warm, refreshes, batch, pairs = 16, 8, 1, 4, 1
	}
	p := mesh.PaperProblem(gridN)
	w := &sessionWorkload{
		workloadInfo: workloadInfo{
			Name: "direct-refactor", Ranks: 1, Workers: 1, EpochSeconds: 1.65,
			Sizes: map[string]int{"grid_n": gridN, "n": p.N(), "nnz": p.NNZ(), "warm_per_epoch": warm, "refresh_per_epoch": refreshes, "batch": batch},
		},
		backend: "superlu",
		params:  map[string]string{},
		tol:     directTol, seed: seed,
		genLocal: p.GenerateLocal, genSpan: "mesh.Problem.GenerateLocal", problem: p,
		batch: batch, ab: abWarm, abPairs: pairs,
		native: func() nativeSolver { return &sluNative{} },
	}
	w.global, w.rhs = mustGlobal(p.GenerateGlobal())
	w.sched = solverSchedule(newRNG(seed, w.Name), p.N(), warm, refreshes)
	w.finish()
	return w
}

func mustGlobal(a *sparse.CSR, b []float64, err error) (*sparse.CSR, []float64) {
	if err != nil {
		panic(fmt.Sprintf("generate benchmark operator: %v", err)) // fixed, valid sizes: a bug if it fails
	}
	return a, b
}

// sessionOptions are the options of every session the workload opens;
// the end-to-end pass leaves the recorder nil.
func (w *sessionWorkload) sessionOptions(rec *telemetry.Recorder) core.SessionOptions {
	opts := core.SessionOptions{Params: w.params, Recorder: rec}
	if w.Workers > 1 {
		opts.Workers = w.Workers
	}
	return opts
}

func (w *sessionWorkload) epoch(ctx epochCtx) (epochSamples, error) {
	e, tr := ctx.e, ctx.tr
	out := epochSamples{}
	root := tr.begin("epoch", noSpan, e, 0)
	defer tr.end(root)

	runtime.GC()
	err := inWorld(w.Ranks, func(c *comm.Comm) error {
		t, o := tr, out
		if c.Rank() != 0 {
			t, o = nil, epochSamples{} // rank 0 speaks for the cohort: one span per call, one sample per operation
		}
		return w.sessionCycle(c, ctx, t, root, o)
	})
	if err != nil {
		return nil, err
	}

	if w.ab != abWarm {
		for p := 0; p < w.abPairs; p++ {
			var port, native float64
			var perr, nerr error
			runAB(e+p,
				func() { port, perr = w.coldPort(ctx, p, root) },
				func() { native, nerr = w.coldNative(ctx, p, root, out) })
			if perr != nil {
				return nil, perr
			}
			if nerr != nil {
				return nil, nerr
			}
			if port > 0 && native > 0 {
				out.add("overhead_ratio", port/native)
			}
		}
	}
	return out, nil
}

// rankState is what one rank carries through an epoch's session cycle.
type rankState struct {
	c    *comm.Comm
	l    *pmat.Layout
	s    *core.Session
	a    *sparse.CSR // version-1 local rows, as generated
	xg   []float64   // gathered solution (rank 0)
	bg   []float64   // global right-hand side of the operation being verified (rank 0)
	ctx  context.Context
	tr   *tracer
	e    int
	root int
}

// timed runs fn between two barriers and returns rank 0's wall time.
func (r *rankState) timed(fn func()) float64 {
	r.c.Barrier()
	start := time.Now()
	fn()
	r.c.Barrier()
	return time.Since(start).Seconds()
}

// verify gathers x and checks it on rank 0 against operator a and the
// right-hand side of o. Collective; returns rank 0's verdict.
func (r *rankState) verify(ck *checker, key string, a *sparse.CSR, base []float64, o op, x []float64, tol float64, out outcome) bool {
	r.xg = pmat.GatherInto(r.l, 0, r.xg, x)
	if r.c.Rank() != 0 {
		return true
	}
	if cap(r.bg) < len(base) {
		r.bg = make([]float64, len(base))
	}
	r.bg = r.bg[:len(base)]
	rotateRHS(r.bg, base, 0, o)
	return ck.check(key, a, r.bg, r.xg, tol, out)
}

func toOutcome(res core.SolveResult, err error) outcome {
	return outcome{iters: res.Iterations, converged: res.Converged, err: err}
}

// baseOp is the unrotated right-hand side the generators produce.
var baseOp = op{Kind: opBase, Scale: 1, Version: 1}

// sessionCycle is one rank's part of an epoch: cold cycle, steady
// phase, and (abWarm) the in-session A/B. Errors are rank-uniform —
// every input is valid and identical on all ranks — so an early return
// never strands a peer in a collective.
func (w *sessionWorkload) sessionCycle(c *comm.Comm, ectx epochCtx, tr *tracer, root int, out epochSamples) error {
	e, ck := ectx.e, ectx.ck
	r := &rankState{c: c, ctx: context.Background(), tr: tr, e: e, root: root}
	var rec *telemetry.Recorder
	if tr != nil {
		rec = telemetry.New()
	}

	// Cold cycle: time to first solution.
	var b, x []float64
	var res core.SolveResult
	var err error
	coldSpan := tr.begin("cold", root, e, 0)
	cold := r.timed(func() {
		if r.l, err = pmat.EvenLayout(c, w.global.Rows); err != nil {
			return
		}
		tr.call(w.genSpan, coldSpan, e, func() { r.a, b, err = w.genLocal(r.l) })
		if err != nil {
			return
		}
		tr.call("core.OpenSession", coldSpan, e, func() { r.s, err = core.OpenSession(w.backend, c, w.sessionOptions(rec)) })
		if err != nil {
			return
		}
		tr.call("core.Session.Setup", coldSpan, e, func() { err = r.s.Setup(r.l, r.a) })
		if err != nil {
			return
		}
		tr.call("core.Session.SetupRHS", coldSpan, e, func() { err = r.s.SetupRHS(b, 1) })
		if err != nil {
			return
		}
		x = make([]float64, r.l.LocalN)
		tr.call("core.Session.Solve/first", coldSpan, e, func() { res, err = r.s.Solve(r.ctx, x) })
	})
	tr.end(coldSpan)
	if r.s == nil {
		return fmt.Errorf("%s: cold cycle: %w", w.Name, err)
	}
	defer r.s.Close() //nolint:errcheck // Close only releases the worker pool
	if r.verify(ck, "cold", w.global, w.rhs, baseOp, x, w.tol, toOutcome(res, err)) {
		out.add("setup_s", cold)
	}

	// Steady phase: the fixed warm : refresh mix. Verification time is
	// excluded from its wall clock; everything else between operations
	// (building right-hand sides, perturbing values) stays in, as a
	// caller's own work between solves would.
	localN := r.l.LocalN
	rhsBuf := make([]float64, w.batch*localN)
	solBuf := make([]float64, w.batch*localN)
	results := make([]outcome, w.batch)
	steady := tr.begin("steady", root, e, 0)
	steadyStart := time.Now()
	var verifying time.Duration
	correct := 0
	for i := 0; i < len(w.sched); {
		o := w.sched[i]
		if o.Kind == opRefresh {
			// A refresh allocates like a cold cycle, so like one it starts
			// from a collected heap (peak_rss_mb then depends on what the
			// operation allocates, not on where the pacer's cycle fell);
			// the collection is the harness's, so it is not on the clock.
			gcStart := time.Now()
			r.timed(func() {
				if c.Rank() == 0 {
					runtime.GC()
				}
			})
			verifying += time.Since(gcStart)
			aV := withValues(r.a, perturbValues(r.a, r.l.Start, w.seed, o.Version))
			rotateRHS(rhsBuf[:localN], w.rhs, r.l.Start, o)
			sp := tr.begin("refresh", steady, e, 0)
			d := r.timed(func() {
				tr.call("core.Session.Setup", sp, e, func() { err = r.s.Setup(r.l, aV) })
				if err == nil {
					tr.call("core.Session.SetupRHS", sp, e, func() { err = r.s.SetupRHS(rhsBuf[:localN], 1) })
				}
				if err == nil {
					tr.call("core.Session.Solve", sp, e, func() { res, err = r.s.Solve(r.ctx, solBuf[:localN]) })
				}
			})
			tr.end(sp)
			vStart := time.Now()
			ok := r.verify(ck, fmt.Sprintf("op/%d", i), w.versions[o.Version], w.rhs, o, solBuf[:localN], w.tol, toOutcome(res, err))
			verifying += time.Since(vStart)
			if ok {
				correct++
				out.add("refresh_ms", d*1e3)
			}
			i++
			continue
		}
		k := 0
		for i+k < len(w.sched) && k < w.batch && w.sched[i+k].Kind == opWarm {
			rotateRHS(rhsBuf[k*localN:(k+1)*localN], w.rhs, r.l.Start, w.sched[i+k])
			k++
		}
		d := r.timed(func() { w.warmBatch(r, steady, rhsBuf, solBuf, results[:k]) })
		vStart := time.Now()
		passed := 0
		for j := 0; j < k; j++ {
			o := w.sched[i+j]
			if r.verify(ck, fmt.Sprintf("op/%d", i+j), w.versions[o.Version], w.rhs, o, solBuf[j*localN:(j+1)*localN], w.tol, results[j]) {
				passed++
			}
		}
		verifying += time.Since(vStart)
		correct += passed
		if passed == k {
			out.add("warm_solve_ms", d/float64(k)*1e3)
		}
		i += k
	}
	c.Barrier()
	steadyWall := time.Since(steadyStart) - verifying
	tr.end(steady)
	if correct > 0 {
		out.add("solves_per_s", float64(correct)/steadyWall.Seconds())
	}

	if w.ab == abWarm {
		if err := w.warmAB(r, ck, out, rhsBuf, solBuf, results); err != nil {
			return err
		}
	}
	if ectx.allocs {
		// Heap objects allocated per warm solve, read between barriers so
		// every rank is parked: with no recorder attached the count
		// repeats exactly.
		var before, after runtime.MemStats
		r.timed(func() {})
		runtime.ReadMemStats(&before)
		r.timed(func() { w.warmBatch(r, noSpan, rhsBuf, solBuf, results) })
		runtime.ReadMemStats(&after)
		out.add("core.warm_allocs_per_solve", float64(after.Mallocs-before.Mallocs)/float64(len(results)))
	}
	if rec != nil {
		snap := rec.Snapshot()
		for _, p := range solvePhases {
			out.add("telemetry.phase_"+string(p)+"_s", snap.Phases[p].Seconds())
		}
	}
	return nil
}

// warmBatch runs len(results) warm solves back to back: stage a new
// right-hand side, solve against the already-staged operator.
func (w *sessionWorkload) warmBatch(r *rankState, parent int, rhs, sol []float64, results []outcome) {
	n := r.l.LocalN
	for j := range results {
		var res core.SolveResult
		var err error
		r.tr.call("core.Session.SetupRHS", parent, r.e, func() { err = r.s.SetupRHS(rhs[j*n:(j+1)*n], 1) })
		if err == nil {
			r.tr.call("core.Session.Solve", parent, r.e, func() { res, err = r.s.Solve(r.ctx, sol[j*n:(j+1)*n]) })
		}
		results[j] = toOutcome(res, err)
	}
}

// warmAB measures overhead_ratio for abWarm: batches of warm solves
// through the session against batches of the same solves on a natively
// built solver over the same operator, interleaved, order alternating.
func (w *sessionWorkload) warmAB(r *rankState, ck *checker, out epochSamples, rhsBuf, solBuf []float64, results []outcome) error {
	n := r.l.LocalN
	cur := w.sched[len(w.sched)-1].Version
	aV := withValues(r.a, perturbValues(r.a, r.l.Start, w.seed, cur))
	nat := w.native()
	defer nat.close()
	var err error
	sp := r.tr.begin("ab", r.root, r.e, 0)
	defer r.tr.end(sp)
	r.tr.call("native.setup", sp, r.e, func() { err = nat.setup(r.c, r.l, aV) })
	if err != nil {
		return fmt.Errorf("%s: native setup: %w", w.Name, err)
	}
	k := len(results)
	var viaSession, viaNative []float64
	for p := 0; p < w.abPairs; p++ {
		ops := make([]op, k)
		for j := range ops {
			ops[j] = w.sched[(p*k+j)%len(w.sched)]
			ops[j].Shift = (ops[j].Shift + 1 + p) % len(w.rhs) // right-hand sides the steady phase did not use
			rotateRHS(rhsBuf[j*n:(j+1)*n], w.rhs, r.l.Start, ops[j])
		}
		side := func(solve func()) (float64, bool) {
			d := r.timed(solve)
			ok := true
			for j := 0; j < k; j++ {
				key := fmt.Sprintf("ab/%d/%d", p, j) // both sides share the key: the native bits must equal the session's
				if !r.verify(ck, key, w.versions[cur], w.rhs, ops[j], solBuf[j*n:(j+1)*n], w.tol, results[j]) {
					ok = false
				}
			}
			return d / float64(k), ok
		}
		runAB(r.e+p,
			func() {
				if d, ok := side(func() { w.warmBatch(r, sp, rhsBuf, solBuf, results) }); ok {
					viaSession = append(viaSession, d)
				}
			},
			func() {
				d, ok := side(func() {
					for j := range results {
						iters, err := nat.solve(solBuf[j*n:(j+1)*n], rhsBuf[j*n:(j+1)*n])
						results[j] = outcome{iters: iters, converged: err == nil, err: err}
					}
				})
				if ok {
					viaNative = append(viaNative, d)
				}
			})
	}
	if len(viaSession) > 0 && len(viaNative) > 0 {
		out.add("overhead_ratio", median(viaSession)/median(viaNative))
		out.add("core.port_overhead_us", (median(viaSession)-median(viaNative))*1e6)
	}
	return nil
}

// coldSide runs one side of a cold A/B pair as an SPMD region on a fresh
// world, after a collection so the previous cycle's garbage is not
// billed to this one. body is timed barrier to barrier and returns this
// rank's solution and what the solve said about itself; after, if set,
// runs untimed on the same world. Both sides of a pair verify under one
// key: identical work must give identical iterations and bits. The
// result is rank 0's time, or 0 when the solve failed its check.
func (w *sessionWorkload) coldSide(ctx epochCtx, pair, root int, span string, body func(r *rankState, sp int) ([]float64, outcome), after func(r *rankState)) (float64, error) {
	var seconds float64
	runtime.GC()
	err := inWorld(w.Ranks, func(c *comm.Comm) error {
		r := &rankState{c: c, e: ctx.e, tr: ctx.tr}
		if c.Rank() != 0 {
			r.tr = nil
		}
		var err error
		if r.l, err = pmat.EvenLayout(c, w.global.Rows); err != nil {
			return err
		}
		var x []float64
		var out outcome
		sp := r.tr.begin(span, root, ctx.e, 0)
		d := r.timed(func() { x, out = body(r, sp) })
		r.tr.end(sp)
		if x == nil {
			x = make([]float64, r.l.LocalN) // the side errored before solving; out.err fails the check
		}
		if r.verify(ctx.ck, fmt.Sprintf("coldpair/%d", pair), w.global, w.rhs, baseOp, x, w.tol, out) && c.Rank() == 0 {
			seconds = d
		}
		if after != nil {
			after(r)
		}
		return nil
	})
	return seconds, err
}

// coldPort is the A side of a cold pair: one solve through the CCA
// assembly.
func (w *sessionWorkload) coldPort(ctx epochCtx, pair, root int) (float64, error) {
	params := w.params
	if w.Workers > 1 {
		params = map[string]string{"workers": strconv.Itoa(w.Workers)}
		for k, v := range w.params {
			params[k] = v
		}
	}
	driverClass := core.ClassDriver
	if w.ab == abColdPort {
		driverClass = classPortDriver
	}
	return w.coldSide(ctx, pair, root, "cold/port", func(r *rankState, sp int) ([]float64, outcome) {
		var comp cca.Component
		var err error
		r.tr.call("cca.assemble", sp, r.e, func() { comp, err = assemblePort(r.c, driverClass, w.backend) })
		if err != nil {
			return nil, outcome{err: err}
		}
		if w.ab == abColdCCA {
			var res *core.Result
			r.tr.call("core.DriverComponent.SolveProblem", sp, r.e, func() {
				res, err = comp.(*core.DriverComponent).SolveProblem(w.problem, core.CSR, params)
			})
			if err != nil {
				return nil, outcome{err: err}
			}
			return res.X, outcome{iters: res.Iterations, converged: res.Converged}
		}
		a, b := localRows(w.global, w.rhs, r.l)
		x := make([]float64, r.l.LocalN)
		var res core.SolveResult
		r.tr.call("core.SparseSolver(port)", sp, r.e, func() { res, err = comp.(*portDriver).solve(r.l, a, b, x, params) })
		return x, toOutcome(res, err)
	}, nil)
}

// coldNative is the B side: the same solve by hand-written native calls.
// In the traced pass it also times warm native solves, the baseline of
// core.port_overhead_us for the cold-pair workloads.
func (w *sessionWorkload) coldNative(ctx epochCtx, pair, root int, out epochSamples) (float64, error) {
	nat := make([]nativeSolver, w.Ranks)
	var after func(r *rankState)
	if ctx.tr != nil && pair == 0 {
		after = func(r *rankState) {
			_, b := localRows(w.global, w.rhs, r.l)
			x := make([]float64, r.l.LocalN)
			var err error
			var warm []float64
			for j := 0; j < 3; j++ {
				warm = append(warm, r.timed(func() { _, err = nat[r.c.Rank()].solve(x, b) }))
			}
			if r.c.Rank() == 0 && err == nil {
				out.add("native_warm_s", median(warm))
			}
		}
	}
	seconds, err := w.coldSide(ctx, pair, root, "cold/native", func(r *rankState, sp int) ([]float64, outcome) {
		n := w.native()
		nat[r.c.Rank()] = n
		var a *sparse.CSR
		var b []float64
		var err error
		if w.ab == abColdCCA {
			a, b, err = w.genLocal(r.l) // the CCA driver generates its rows inside the pair too
		} else {
			a, b = localRows(w.global, w.rhs, r.l)
		}
		if err == nil {
			r.tr.call("native.setup", sp, r.e, func() { err = n.setup(r.c, r.l, a) })
		}
		if err != nil {
			return nil, outcome{err: err}
		}
		x := make([]float64, r.l.LocalN)
		var iters int
		r.tr.call("native.solve", sp, r.e, func() { iters, err = n.solve(x, b) })
		return x, outcome{iters: iters, converged: err == nil, err: err}
	}, after)
	for _, n := range nat {
		if n != nil {
			n.close()
		}
	}
	return seconds, err
}
