package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/aztec"
	"repro/internal/cca"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/ksp"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/pmat"
	"repro/internal/slu"
	"repro/internal/sparse"
)

// probeInput is the workload's own operator, handed to the layer
// probes of the traced pass: each probe times calls into one layer's
// public functions on exactly this operator, from the benchmark's side
// of the boundary. A layer the workload never reaches is still probed
// on it, which is what makes "predicted no change" checkable.
type probeInput struct {
	global *sparse.CSR
	rhs    []float64
	spd    bool
	ranks  int // rank count the workload runs with
	tol    float64
	seed   int64
	gridN  int // stencil workloads: the grid the operator came from
	femN   int // fem workload: the mesh size it came from
}

// probeWorkers is the pool size of every two-level probe: the "w2" of
// the ratio metrics, and the most a 2-processor host can run.
const probeWorkers = 2

// layerProbes runs every probe and returns the per-layer metrics they
// produce. Each probe is one span under parent, so the trace file shows
// what the probes cost beside the traced epochs.
func layerProbes(in probeInput, tr *tracer, parent int) (map[string]float64, error) {
	out := map[string]float64{}
	probes := []struct {
		name string
		run  func(probeInput, map[string]float64) error
	}{
		{"probe/sparse", probeSparse},
		{"probe/pmat", probePmat},
		{"probe/par", probePar},
		{"probe/comm", probeComm},
		{"probe/ksp", probeKSP},
		{"probe/aztec", probeAztec},
		{"probe/slu", probeSLU},
		{"probe/mg", probeMG},
		{"probe/cca", probeCCA},
		{"probe/mesh", probeMesh},
	}
	for _, p := range probes {
		var err error
		tr.call(p.name, parent, 0, func() { err = p.run(in, out) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return out, nil
}

// repeat returns the median of reps batches of count calls, in seconds
// per call. Counts are fixed by the operator's size, never by a clock.
func repeat(reps, count int, fn func()) float64 {
	samples := make([]float64, reps)
	for r := range samples {
		samples[r] = perOp(count, func(int) { fn() })
	}
	return median(samples)
}

// countFor sizes a batch so that it does about work units in total,
// given the units one call does (nnz for a product, n for a vector op).
func countFor(work, perCall int) int {
	return min(max(work/max(perCall, 1), 4), 20000)
}

// inWorld runs fn as an SPMD region on a fresh world; the error is
// rank 0's (errors here are rank-uniform).
func inWorld(ranks int, fn func(c *comm.Comm) error) error {
	w, err := comm.NewWorld(ranks)
	if err != nil {
		return err
	}
	var fnErr error
	if err := w.Run(func(c *comm.Comm) {
		if err := fn(c); err != nil && c.Rank() == 0 {
			fnErr = err
		}
	}); err != nil {
		return err
	}
	return fnErr
}

// localRows is one rank's block rows of a global system.
func localRows(a *sparse.CSR, b []float64, l *pmat.Layout) (*sparse.CSR, []float64) {
	return a.SubMatrix(l.Start, l.Start+l.LocalN), b[l.Start : l.Start+l.LocalN]
}

func probeSparse(in probeInput, out map[string]float64) error {
	a := in.global
	x := append([]float64(nil), in.rhs...)
	y := make([]float64, a.Rows)
	count := countFor(16_000_000, a.NNZ())

	out["sparse.spmv_csr_us"] = repeat(5, count, func() { a.MulVec(y, x) }) * 1e6

	msr, split, err := sparse.MSROrderedFromCSR(a)
	if err != nil {
		return err
	}
	var k sparse.ParSpMV
	k.BindMSROrdered(msr, split, false)
	out["sparse.spmv_msr_us"] = repeat(5, count, func() { k.Apply(nil, y, x) }) * 1e6

	// auto: the format the timed probe picks, bound the way a session
	// binds it (pmat.Mat.SetFormat on a one-rank layout).
	err = inWorld(1, func(c *comm.Comm) error {
		l, err := pmat.EvenLayout(c, a.Rows)
		if err != nil {
			return err
		}
		m, err := pmat.NewMat(l, a)
		if err != nil {
			return err
		}
		start := time.Now()
		m.SetFormat(sparse.ChoiceAuto)
		out["sparse.probe_ms"] = time.Since(start).Seconds() * 1e3
		out["sparse.spmv_auto_us"] = repeat(5, count, func() { m.Apply(y, x) }) * 1e6
		return nil
	})
	if err != nil {
		return err
	}

	// Computed, not measured: the bytes one CSR product must move if
	// every array is read once and y written once (8-byte values and
	// indices); cache misses are not in it.
	out["sparse.spmv_bytes_computed"] = float64(16*a.NNZ() + 8*(a.Rows+1) + 8*a.Cols + 8*a.Rows)

	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, a, sparse.MMGeneral); err != nil {
		return err
	}
	text := mm.Bytes()
	out["sparse.mm_read_ms"] = repeat(3, 1, func() {
		if _, rerr := sparse.ReadMatrixMarket(bytes.NewReader(text)); rerr != nil {
			err = rerr
		}
	}) * 1e3
	if err != nil {
		return err
	}
	coo := a.ToCOO()
	out["sparse.coo_to_csr_ms"] = repeat(3, 1, func() { coo.ToCSR() }) * 1e3
	return nil
}

func probePmat(in probeInput, out map[string]float64) error {
	return inWorld(in.ranks, func(c *comm.Comm) error {
		l, err := pmat.EvenLayout(c, in.global.Rows)
		if err != nil {
			return err
		}
		a, b := localRows(in.global, in.rhs, l)
		var m *pmat.Mat
		c.Barrier()
		build := repeat(3, 1, func() { m, err = pmat.NewMat(l, a) })
		if err != nil {
			return err
		}
		x := append([]float64(nil), b...)
		y := make([]float64, l.LocalN)
		count := countFor(8_000_000, a.NNZ())
		c.Barrier()
		apply := repeat(5, count, func() { m.Apply(y, x) })
		dotCount := countFor(4_000_000, l.LocalN)
		c.Barrier()
		dot := repeat(5, dotCount, func() { pmat.Dot(c, x, y) })
		ghosts := c.AllReduceInt(m.NumGhosts(), comm.OpSum)
		if c.Rank() == 0 {
			out["pmat.newmat_ms"] = build * 1e3
			out["pmat.apply_us"] = apply * 1e6
			out["pmat.dot_us"] = dot * 1e6
			out["pmat.ghost_frac"] = float64(ghosts) / float64(in.global.Rows)
		}
		return nil
	})
}

// nopTask is the cheapest possible pool task: what remains is dispatch.
type nopTask struct{}

func (nopTask) Range(_, _, _ int) {}

func probePar(in probeInput, out map[string]float64) error {
	a := in.global
	pool := par.New(probeWorkers)
	defer pool.Close()

	out["par.run_dispatch_us"] = repeat(5, 4000, func() { pool.Run(1024, nopTask{}) }) * 1e6

	// Level sets of the forward sweep of an ILU(0) factor, which has
	// A's own lower pattern: how much parallelism a level-scheduled
	// triangular solve on this operator can find at all.
	lv := par.LowerLevels(a.Rows, func(i int, visit func(j int)) {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			visit(a.ColInd[k])
		}
	})
	widths := make([]float64, lv.NumLevels())
	for i := range widths {
		widths[i] = float64(len(lv.Level(i)))
	}
	out["par.levels_count"] = float64(lv.NumLevels())
	out["par.level_median_width"] = median(widths)

	x := append([]float64(nil), in.rhs...)
	y := make([]float64, a.Rows)
	count := countFor(8_000_000, a.NNZ())
	err := inWorld(1, func(c *comm.Comm) error {
		l, err := pmat.EvenLayout(c, a.Rows)
		if err != nil {
			return err
		}
		m, err := pmat.NewMat(l, a)
		if err != nil {
			return err
		}
		var w1, w2 []float64
		for r := 0; r < 5; r++ {
			runAB(r,
				func() { m.SetPool(nil); w1 = append(w1, perOp(count, func(int) { m.Apply(y, x) })) },
				func() { m.SetPool(pool); w2 = append(w2, perOp(count, func(int) { m.Apply(y, x) })) })
		}
		out["par.w2_over_w1_spmv_ratio"] = median(w2) / median(w1)
		return nil
	})
	if err != nil {
		return err
	}

	serial, err := ksp.NewILU0(a)
	if err != nil {
		return err
	}
	leveled, err := ksp.NewILU0(a)
	if err != nil {
		return err
	}
	leveled.EnableLevels(pool)
	var w1, w2 []float64
	for r := 0; r < 5; r++ {
		runAB(r,
			func() { w1 = append(w1, perOp(count/2+1, func(int) { serial.Solve(y, x) })) },
			func() { w2 = append(w2, perOp(count/2+1, func(int) { leveled.Solve(y, x) })) })
	}
	out["par.w2_over_w1_trisolve_ratio"] = median(w2) / median(w1)

	// Counts of the fixed probe sequence above: they repeat exactly.
	dispatches, inline := pool.Stats()
	out["par.dispatches"] = float64(dispatches)
	out["par.inline_runs"] = float64(inline)
	return nil
}

// nativeKSP runs setup + one solve of the petsc-role native program on
// a fresh world of the given size and reports what it cost.
type kspRun struct {
	solve float64 // seconds per warm solve
	iters int
	stats comm.Stats // traffic of one warm solve, whole world
}

func nativeKSP(in probeInput, ranks int) (kspRun, error) {
	var run kspRun
	err := inWorld(ranks, func(c *comm.Comm) error {
		l, err := pmat.EvenLayout(c, in.global.Rows)
		if err != nil {
			return err
		}
		a, b := localRows(in.global, in.rhs, l)
		n := &kspNative{tol: in.tol, pc: ksp.PCILU}
		if err := n.setup(c, l, a); err != nil {
			return err
		}
		x := make([]float64, l.LocalN)
		if _, err := n.solve(x, b); err != nil { // first solve builds the preconditioner
			return err
		}
		var solves []float64
		var before comm.Stats
		for r := 0; r < 3; r++ {
			c.Barrier()
			if c.Rank() == 0 {
				before = c.World().Stats()
			}
			c.Barrier()
			start := time.Now()
			iters, err := n.solve(x, b)
			c.Barrier()
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				solves = append(solves, time.Since(start).Seconds())
				run.iters = iters
				run.stats = c.World().Stats().Sub(before)
			}
		}
		if c.Rank() == 0 {
			run.solve = median(solves)
		}
		return nil
	})
	return run, err
}

func probeComm(in probeInput, out map[string]float64) error {
	const ranks = 2
	err := inWorld(ranks, func(c *comm.Comm) error {
		c.Barrier()
		barrier := repeat(5, 5000, func() { c.Barrier() })
		c.Barrier()
		reduce := repeat(5, 5000, func() { c.AllReduceFloat64(1.5, comm.OpSum) })
		if c.Rank() == 0 {
			out["comm.barrier_us"] = barrier * 1e6
			out["comm.allreduce_us"] = reduce * 1e6
		}
		return nil
	})
	if err != nil {
		return err
	}
	p2, err := nativeKSP(in, ranks)
	if err != nil {
		return err
	}
	p1, err := nativeKSP(in, 1)
	if err != nil {
		return err
	}
	// Counts over one native GMRES solve on two ranks, bracketed by the
	// probe's own two barriers (a constant 2·ranks barrier entries).
	out["comm.msgs_per_solve"] = float64(p2.stats.Sends)
	out["comm.bytes_per_solve"] = float64(p2.stats.BytesSent)
	out["comm.collectives_per_solve"] = float64(p2.stats.Collectives)
	out["comm.barrier_wait_frac"] = p2.stats.BarrierWait.Seconds() / (ranks * p2.solve)
	out["comm.p2_over_p1_solve_ratio"] = p2.solve / p1.solve
	return nil
}

func probeKSP(in probeInput, out map[string]float64) error {
	run, err := nativeKSP(in, in.ranks)
	if err != nil {
		return err
	}
	out["ksp.iterations"] = float64(run.iters)
	out["ksp.solve_ms"] = run.solve * 1e3
	out["ksp.ms_per_iteration"] = run.solve * 1e3 / float64(max(run.iters, 1))
	out["ksp.ilu0_build_ms"] = repeat(3, 1, func() { _, err = ksp.NewILU0(in.global) }) * 1e3
	return err
}

func probeAztec(in probeInput, out map[string]float64) error {
	a := in.global
	solver := aztec.AZGMRES
	if in.spd {
		solver = aztec.AZCG
	}
	err := inWorld(1, func(c *comm.Comm) error {
		l, err := pmat.EvenLayout(c, a.Rows)
		if err != nil {
			return err
		}
		mp, err := aztec.NewMapWithLocal(c, l.LocalN)
		if err != nil {
			return err
		}
		fill := repeat(3, 1, func() {
			crs := aztec.NewCrsMatrix(mp)
			for i := 0; i < a.Rows && err == nil; i++ {
				cols, vals := a.RowView(i)
				err = crs.InsertGlobalValues(i, cols, vals)
			}
			if err == nil {
				err = crs.FillComplete()
			}
		})
		if err != nil {
			return err
		}
		out["aztec.fillcomplete_ms"] = fill * 1e3

		n := &aztecNative{tol: in.tol, solver: solver, workers: 1}
		if err := n.setup(c, l, a); err != nil {
			return err
		}
		x := make([]float64, a.Rows)
		if _, err := n.solve(x, in.rhs); err != nil { // first Iterate builds the preconditioner
			return err
		}
		var iters int
		out["aztec.iterate_ms"] = repeat(3, 1, func() { iters, err = n.solve(x, in.rhs) }) * 1e3
		out["aztec.iterations"] = float64(iters)
		return err
	})
	if err != nil {
		return err
	}
	params := aztec.DefaultParams()
	var f *aztec.ILUT
	out["aztec.ilut_build_ms"] = repeat(3, 1, func() {
		f, err = aztec.NewILUT(a, params[aztec.AZDrop], math.Max(params[aztec.AZIlutFill], 1))
	}) * 1e3
	if err != nil {
		return err
	}
	z := make([]float64, a.Rows)
	out["aztec.ilut_apply_us"] = repeat(5, countFor(4_000_000, f.NNZ()), func() { f.Solve(z, in.rhs) }) * 1e6
	return nil
}

func probeSLU(in probeInput, out map[string]float64) error {
	a := in.global
	opts := slu.DefaultOptions()
	var err error
	out["slu.ordering_ms"] = repeat(3, 1, func() { _, err = slu.ComputeOrdering(a, opts.ColPerm) }) * 1e3
	if err != nil {
		return err
	}
	var f *slu.LU
	out["slu.factor_ms"] = repeat(3, 1, func() { f, err = slu.Factor(a, opts) }) * 1e3
	if err != nil {
		return err
	}
	out["slu.fill_ratio"] = f.FillRatio(a.NNZ())
	x := make([]float64, a.Rows)
	count := countFor(16_000_000, f.NNZ())
	out["slu.trisolve_us"] = repeat(5, count, func() { err = f.SolveInto(x, in.rhs) }) * 1e6
	if err != nil {
		return err
	}
	pool := par.New(probeWorkers)
	defer pool.Close()
	f.EnableLevels(pool)
	out["slu.trisolve_levels_w2_us"] = repeat(5, count, func() { err = f.SolveInto(x, in.rhs) }) * 1e6
	return err
}

// mgGridN is the fixed grid of the multigrid probe (2^k−1 coarsens
// fully). No end-to-end workload uses mg; the probe exists so that a
// change to the smoother or pmat path it shares is still seen.
const mgGridN = 63

func probeMG(in probeInput, out map[string]float64) error {
	gridN := mgGridN
	if in.global.Rows < 32*32 {
		gridN = 15 // -quick
	}
	p := mesh.PaperProblem(gridN)
	return inWorld(1, func(c *comm.Comm) error {
		l, err := pmat.EvenLayout(c, p.N())
		if err != nil {
			return err
		}
		a, b, err := p.GenerateLocal(l)
		if err != nil {
			return err
		}
		s, err := core.OpenSession("mg", c, core.SessionOptions{Params: map[string]string{
			"grid_n": fmt.Sprint(gridN), "tol": "1e-8",
		}})
		if err != nil {
			return err
		}
		defer s.Close() //nolint:errcheck // Close only releases the worker pool
		if err := s.Setup(l, a); err != nil {
			return err
		}
		if err := s.SetupRHS(b, 1); err != nil {
			return err
		}
		x := make([]float64, l.LocalN)
		var res core.SolveResult
		if _, err := s.Solve(context.Background(), x); err != nil { // first solve builds the hierarchy
			return err
		}
		out["mg.solve_ms"] = repeat(3, 1, func() { res, err = s.Solve(context.Background(), x) }) * 1e3
		out["mg.cycles"] = float64(res.Iterations)
		return err
	})
}

func probeCCA(_ probeInput, out map[string]float64) error {
	return inWorld(1, func(c *comm.Comm) error {
		var comp cca.Component
		var err error
		out["cca.assemble_us"] = repeat(5, 200, func() { comp, err = assemblePort(c, classPortDriver, "superlu") }) * 1e6
		if err != nil {
			return err
		}
		svc := comp.(*portDriver).svc
		out["cca.port_call_ns"] = repeat(5, 200_000, func() {
			port, perr := svc.GetPort("solver")
			if perr != nil {
				err = perr
				return
			}
			port.(core.SparseSolver).SetLocalRows(1)
			svc.ReleasePort("solver") //nolint:errcheck // the name was registered by SetServices
		}) * 1e9
		return err
	})
}

func probeMesh(in probeInput, out map[string]float64) error {
	gridN, femN := in.gridN, in.femN
	if gridN == 0 {
		gridN = int(math.Round(math.Sqrt(float64(in.global.Rows))))
	}
	if femN == 0 {
		femN = int(math.Round(math.Cbrt(float64(in.global.Rows)))) + 1
	}
	var err error
	out["mesh.stencil_gen_ms"] = repeat(3, 1, func() { _, _, err = mesh.PaperProblem(gridN).GenerateGlobal() }) * 1e3
	if err != nil {
		return err
	}
	out["mesh.fem_assembly_ms"] = repeat(3, 1, func() { _, _, err = mesh.DefaultFEMProblem(femN, in.seed).GenerateGlobal() }) * 1e3
	return err
}
