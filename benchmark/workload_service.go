package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/service"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// solvePhases are the four phases the telemetry.phase_*_s metrics split
// a solve into.
var solvePhases = []telemetry.Phase{telemetry.PhasePortOverhead, telemetry.PhaseSetup, telemetry.PhasePrecond, telemetry.PhaseIterate}

// serviceWorkload drives an in-process service.Service behind a real
// HTTP server with a closed loop: each client is a time-stepping caller
// that sends its next request only when the previous solution arrived,
// so a slower service receives less load (2 clients, 2 connections).
// The back-ends are tiny; admission, pool lookup, batching, JSON and
// HTTP do the work.
type serviceWorkload struct {
	workloadInfo
	seed    int64
	clients int
	scheds  []schedule // one per client, the same in every epoch

	slu, ksp       *sparse.CSR // harness copies of the two pooled operators, version 1
	rhsSLU, rhsKSP []float64
	versions       map[int]*sparse.CSR // every superlu operator version a schedule reaches
	kspParams      map[string]string

	abBatch, abPairs, bareBatch int

	bodies map[bool][][][]byte // [telemetry][client][request] pre-encoded bodies
}

const (
	serviceTenant = "bench"
	kspTol        = 1e-8
)

func newServiceMixed(seed int64, quick bool) *serviceWorkload {
	gridSLU, gridKSP, requests := 32, 24, 300
	w := &serviceWorkload{seed: seed, clients: 2, abBatch: 20, abPairs: 5, bareBatch: 400}
	if quick {
		gridSLU, gridKSP, requests = 8, 8, 40
		w.abBatch, w.abPairs, w.bareBatch = 4, 1, 8
	}
	w.workloadInfo = workloadInfo{
		Name: "service-mixed", Ranks: 1, Workers: 1, EpochSeconds: 1.1,
		Sizes: map[string]int{
			"superlu_grid_n": gridSLU, "petsc_grid_n": gridKSP, "clients": w.clients,
			"requests_per_client": requests,
		},
	}
	w.kspParams = map[string]string{
		"solver": "gmres", "preconditioner": "jacobi", "tol": "1e-8", "maxits": "5000", "restart": "30",
	}
	w.slu, w.rhsSLU = mustGlobal(mesh.PaperProblem(gridSLU).GenerateGlobal())
	w.ksp, w.rhsKSP = mustGlobal(mesh.PaperProblem(gridKSP).GenerateGlobal())
	w.versions = map[int]*sparse.CSR{1: w.slu}
	for c := 0; c < w.clients; c++ {
		s := serviceSchedule(newRNG(seed, fmt.Sprintf("%s/client%d", w.Name, c)), requests, w.slu.Rows, w.ksp.Rows)
		for _, o := range s {
			if _, ok := w.versions[o.Version]; !ok {
				w.versions[o.Version] = withValues(w.slu, perturbValues(w.slu, 0, seed, o.Version))
			}
		}
		w.scheds = append(w.scheds, s)
	}
	w.bodies = map[bool][][][]byte{}
	return w
}

func (w *serviceWorkload) info() workloadInfo { return w.workloadInfo }

func (w *serviceWorkload) probe() probeInput {
	return probeInput{global: w.slu, rhs: w.rhsSLU, ranks: 1, tol: directTol, seed: w.seed, gridN: w.Sizes["superlu_grid_n"]}
}

func sluID(client int) string { return fmt.Sprintf("slu-c%d", client) }

// request builds the wire request of one scheduled operation.
func (w *serviceWorkload) request(client int, o op, telemetry bool) *service.SolveRequest {
	req := &service.SolveRequest{
		Tenant: serviceTenant, Backend: "superlu", ReturnSolution: true, Telemetry: telemetry,
		Operator: service.OperatorRef{ID: sluID(client), Version: o.Version},
	}
	n, base := w.slu.Rows, w.rhsSLU
	switch o.Kind {
	case opKSP:
		req.Backend, req.Params = "petsc", w.kspParams
		req.Operator = service.OperatorRef{ID: "ksp", Version: 1}
		n, base = w.ksp.Rows, w.rhsKSP
	case opMulti:
		req.NRHS = multiNRHS
	case opBumpCSR:
		a := w.versions[o.Version]
		req.Operator.Matrix = &service.MatrixPayload{N: a.Rows, RowPtr: a.RowPtr, ColInd: a.ColInd, Vals: a.Vals}
	case opBumpMM:
		var sb strings.Builder
		if err := sparse.WriteMatrixMarket(&sb, w.versions[o.Version], sparse.MMGeneral); err != nil {
			panic(fmt.Sprintf("encode matrix market body: %v", err)) // strings.Builder cannot fail
		}
		req.Operator.MatrixMarket = sb.String()
	}
	req.RHS = w.requestRHS(o, n, base)
	return req
}

// requestRHS returns the operation's right-hand side(s): nrhs=4 requests
// carry four further rotations of the base vector.
func (w *serviceWorkload) requestRHS(o op, n int, base []float64) []float64 {
	k := 1
	if o.Kind == opMulti {
		k = multiNRHS
	}
	rhs := make([]float64, k*n)
	for j := 0; j < k; j++ {
		oj := o
		oj.Shift = (o.Shift + j*7) % n
		rotateRHS(rhs[j*n:(j+1)*n], base, 0, oj)
	}
	return rhs
}

// encoded returns the pre-encoded request bodies: the schedule is the
// same in every epoch, so the client's own JSON encoding is paid once
// and kept out of the measured loop.
func (w *serviceWorkload) encoded(telemetry bool) [][][]byte {
	if b, ok := w.bodies[telemetry]; ok {
		return b
	}
	all := make([][][]byte, w.clients)
	for c, s := range w.scheds {
		all[c] = make([][]byte, len(s))
		for i, o := range s {
			all[c][i] = mustJSON(w.request(c, o, telemetry))
		}
	}
	w.bodies[telemetry] = all
	return all
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode request: %v", err)) // plain structs of numbers and strings
	}
	return data
}

// reply is one decoded HTTP exchange.
type reply struct {
	status  int
	seconds float64
	resp    service.SolveResponse
	err     error
}

// post sends one pre-encoded request and reads the whole response; the
// round trip is timed from before the send until the body is drained.
// Decoding the reply happens after the clock stops.
func post(cl *http.Client, url string, body []byte) reply {
	start := time.Now()
	res, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	r := reply{status: res.StatusCode, seconds: time.Since(start).Seconds(), err: err}
	if err != nil {
		return r
	}
	if res.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("HTTP %d: %s", res.StatusCode, bytes.TrimSpace(data))
		return r
	}
	r.err = json.Unmarshal(data, &r.resp)
	return r
}

// checkReply verifies every solution a reply carries.
func (w *serviceWorkload) checkReply(ck *checker, key string, o op, r reply) bool {
	if r.err != nil {
		ck.fail(key, r.err)
		return false
	}
	a, base, tol := w.versions[o.Version], w.rhsSLU, directTol
	if o.Kind == opKSP {
		a, base, tol = w.ksp, w.rhsKSP, kspTol
	}
	n := a.Rows
	rhs := w.requestRHS(o, n, base)
	if len(r.resp.Solution) != len(rhs) {
		ck.fail(key, fmt.Errorf("solution has %d values, want %d", len(r.resp.Solution), len(rhs)))
		return false
	}
	ok := true
	for j := 0; j*n < len(rhs); j++ {
		out := outcome{iters: r.resp.Iterations, converged: r.resp.Converged, noIterPin: r.resp.Batched}
		if !ck.check(fmt.Sprintf("%s/%d", key, j), a, rhs[j*n:(j+1)*n], r.resp.Solution[j*n:(j+1)*n], tol, out) {
			ok = false
		}
	}
	return ok
}

func (w *serviceWorkload) epoch(ctx epochCtx) (epochSamples, error) {
	e, tr, ck := ctx.e, ctx.tr, ctx.ck
	out := epochSamples{}
	root := tr.begin("epoch", noSpan, e, 0)
	defer tr.end(root)
	traced := tr != nil
	bodies := w.encoded(traced)

	runtime.GC()
	coldStart := time.Now()
	coldSpan := tr.begin("cold", root, e, 0)
	svc, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(svc.Handler())
	url := srv.URL + "/v1/solve"
	clients := make([]*http.Client, w.clients)
	for c := range clients {
		clients[c] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	defer func() {
		for _, cl := range clients {
			cl.CloseIdleConnections()
		}
		srv.Close()
		svc.Close() //nolint:errcheck // a forced drain only matters to in-flight requests; there are none
	}()

	// Cold: service.New → first 200 for every operator class.
	coldOK := true
	first := func(key string, client int, o op, grid int) {
		req := w.request(client, o, traced)
		req.Operator.GridN = grid
		sp := tr.begin("service.request/first", coldSpan, e, 0)
		r := post(clients[0], url, mustJSON(req))
		tr.end(sp)
		if !w.checkReply(ck, key, o, r) {
			coldOK = false
		}
	}
	for c := 0; c < w.clients; c++ {
		first(fmt.Sprintf("cold/slu%d", c), c, baseOp, w.Sizes["superlu_grid_n"])
	}
	first("cold/ksp", 0, op{Kind: opKSP, Scale: 1, Version: 1}, w.Sizes["petsc_grid_n"])
	first("cold/multi", 0, op{Kind: opMulti, Scale: 1, Version: 1}, 0)
	cold := time.Since(coldStart).Seconds()
	tr.end(coldSpan)
	if coldOK {
		out.add("setup_s", cold)
	}

	// Steady phase: both clients run their schedules concurrently.
	type clientResult struct {
		warm, refresh, all, mm []float64
		correct, reused, batch int
		shed                   int
	}
	results := make([]clientResult, w.clients)
	steady := tr.begin("steady", root, e, 0)
	steadyStart := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			for i, o := range w.scheds[c] {
				id := c*len(w.scheds[c]) + i + 1
				sp := tr.begin("service.request", steady, e, id)
				r := post(clients[c], url, bodies[c][i])
				tr.end(sp)
				if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
					res.shed++
				}
				if !w.checkReply(ck, fmt.Sprintf("c%d/%d", c, i), o, r) {
					continue
				}
				res.correct++
				res.all = append(res.all, r.seconds*1e3)
				if r.resp.Batched {
					res.batch++
				}
				switch {
				case r.resp.SessionReused:
					res.reused++
					res.warm = append(res.warm, r.seconds*1e3)
				case o.Kind == opBumpCSR || o.Kind == opBumpMM:
					res.refresh = append(res.refresh, r.seconds*1e3)
					if o.Kind == opBumpMM {
						res.mm = append(res.mm, r.seconds*1e3)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	steadyWall := time.Since(steadyStart).Seconds()
	tr.end(steady)
	var total clientResult
	requests := 0
	for c, res := range results {
		requests += len(w.scheds[c])
		total.correct += res.correct
		total.reused += res.reused
		total.batch += res.batch
		total.shed += res.shed
		out["warm_solve_ms"] = append(out["warm_solve_ms"], res.warm...)
		out["refresh_ms"] = append(out["refresh_ms"], res.refresh...)
		total.all = append(total.all, res.all...)
		total.mm = append(total.mm, res.mm...)
	}
	if total.correct > 0 {
		out.add("solves_per_s", float64(total.correct)/steadyWall)
	}
	if traced {
		out.add("service.request_ms", median(total.all))
		_, p95 := highPercentile(total.all, 95)
		out.add("service.request_p95_ms", p95)
		out.add("service.rebuild_ms", median(out["refresh_ms"]))
		out.add("service.mm_ingest_ms", median(total.mm))
		out.add("service.pool_hit_ratio", float64(total.reused)/float64(requests))
		out.add("service.batched_frac", float64(total.batch)/float64(requests))
		stats := svc.Stats()
		shed := total.shed
		for name, v := range stats.Counters {
			if strings.HasPrefix(name, "shed_") {
				shed += int(v)
			}
		}
		out.add("service.shed_count", float64(shed))
		// Phase split of the whole epoch, summed over the per-request
		// reports the telemetry: true requests produced.
		phases := map[string]float64{}
		for _, rep := range svc.Aggregator().Reports() {
			for name, s := range rep.Phases {
				phases[name] += s
			}
		}
		for _, p := range solvePhases {
			out.add("telemetry.phase_"+string(p)+"_s", phases[string(p)])
		}
	}

	if err := w.roundTripAB(e, tr, root, ck, out, svc, clients[0], url); err != nil {
		return nil, err
	}
	return out, nil
}

// roundTripAB measures overhead_ratio: batches of pooled-reuse HTTP
// round trips against batches of bare core.Session solves on the same
// operator, interleaved, order alternating by epoch.
func (w *serviceWorkload) roundTripAB(e int, tr *tracer, root int, ck *checker, out epochSamples, svc *service.Service, cl *http.Client, url string) error {
	sched := w.scheds[0]
	cur := sched[len(sched)-1].Version
	a := w.versions[cur]
	n := a.Rows
	// The pair gets its own pooled operator, staged by one untimed
	// request that carries the body, so it is the same session in the
	// traced pass (whose steady phase pools telemetry sessions apart).
	const abID = "slu-ab"
	abRequest := func(o op) *service.SolveRequest {
		req := w.request(0, o, false)
		req.Operator = service.OperatorRef{ID: abID, Version: cur}
		return req
	}
	stageOp := op{Kind: opBase, Version: cur}
	stage := abRequest(stageOp)
	stage.Operator.Matrix = &service.MatrixPayload{N: n, RowPtr: a.RowPtr, ColInd: a.ColInd, Vals: a.Vals}
	if !w.checkReply(ck, "ab/stage", stageOp, post(cl, url, mustJSON(stage))) {
		return nil // counted as a failed operation; no ratio this epoch
	}
	ops := make([]op, w.abBatch)
	bodies := make([][]byte, w.abBatch)
	for j := range ops {
		ops[j] = op{Kind: opWarm, Shift: (sched[j%len(sched)].Shift + 3) % n, Scale: 1.25, Version: cur}
		bodies[j] = mustJSON(abRequest(ops[j]))
	}
	sp := tr.begin("ab", root, e, 0)
	defer tr.end(sp)

	return inWorld(1, func(c *comm.Comm) error {
		l, err := pmat.EvenLayout(c, n)
		if err != nil {
			return err
		}
		var s *core.Session
		tr.call("core.OpenSession", sp, e, func() { s, err = core.OpenSession("superlu", c, core.SessionOptions{Params: map[string]string{}}) })
		if err != nil {
			return err
		}
		defer s.Close() //nolint:errcheck // Close only releases the worker pool
		tr.call("core.Session.Setup", sp, e, func() { err = s.Setup(l, a) })
		if err != nil {
			return err
		}
		rhs := make([]float64, n)
		x := make([]float64, n)
		bare := func(o op) (core.SolveResult, error) {
			rotateRHS(rhs, w.rhsSLU, 0, o)
			if err := s.SetupRHS(rhs, 1); err != nil {
				return core.SolveResult{}, err
			}
			return s.Solve(context.Background(), x)
		}
		tr.call("core.Session.SetupRHS", sp, e, func() { err = s.SetupRHS(w.rhsSLU, 1) })
		if err != nil {
			return err
		}
		var res core.SolveResult
		tr.call("core.Session.Solve/first", sp, e, func() { res, err = s.Solve(context.Background(), x) })
		ck.check("ab/bare/first", a, w.rhsSLU, x, directTol, toOutcome(res, err))

		var viaHTTP, viaSession []float64
		for p := 0; p < w.abPairs; p++ {
			runAB(e+p,
				func() {
					ok := true
					sum := 0.0 // round trips only: the client's decoding between them is off the clock, as in the steady phase
					for j := range ops {
						r := post(cl, url, bodies[j])
						sum += r.seconds
						if !w.checkReply(ck, fmt.Sprintf("ab/http/%d", j), ops[j], r) {
							ok = false
						}
					}
					if ok {
						viaHTTP = append(viaHTTP, sum/float64(len(ops)))
					}
				},
				func() {
					ok := true
					d := perOp(w.bareBatch, func(i int) {
						o := ops[i%len(ops)]
						res, err := bare(o)
						if i < len(ops) { // the batch repeats these; verify each once
							rotateRHS(rhs, w.rhsSLU, 0, o)
							if !ck.check(fmt.Sprintf("ab/http/%d/0", i), a, rhs, x, directTol, toOutcome(res, err)) {
								ok = false
							}
						} else if err != nil {
							ok = false
						}
					})
					if ok {
						viaSession = append(viaSession, d)
					}
				})
		}
		if len(viaHTTP) > 0 && len(viaSession) > 0 {
			out.add("overhead_ratio", median(viaHTTP)/median(viaSession))
		}
		if tr == nil {
			return nil
		}

		// Traced pass only: the in-process service call (no HTTP, no
		// JSON), the native solver under the bare session, and the
		// session's allocation count.
		req := abRequest(ops[0])
		var resp service.SolveResponse
		inproc := perOp(len(ops), func(i int) {
			id := tr.begin("service.Service.Solve", sp, e, 0)
			if serr := svc.Solve(context.Background(), req, &resp); serr != nil {
				err = serr
			}
			tr.end(id)
		})
		if err != nil {
			return fmt.Errorf("in-process service solve: %w", err)
		}
		out.add("service.inproc_solve_ms", inproc*1e3)
		out.add("service.http_json_ms", (median(viaHTTP)-inproc)*1e3)

		nat := &sluNative{}
		if err := nat.setup(c, l, a); err != nil {
			return err
		}
		rotateRHS(rhs, w.rhsSLU, 0, ops[0])
		native := perOp(w.bareBatch, func(int) { _, err = nat.solve(x, rhs) })
		if err != nil {
			return err
		}
		out.add("core.port_overhead_us", (median(viaSession)-native)*1e6)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := range ops {
			if _, err := bare(ops[j]); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		out.add("core.warm_allocs_per_solve", float64(after.Mallocs-before.Mallocs)/float64(len(ops)))
		return nil
	})
}
