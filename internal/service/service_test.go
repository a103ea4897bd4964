package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/service"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// gmresParams is the iterative workhorse configuration used across the
// service tests (same family as the core steady-state suite).
func gmresParams() map[string]string {
	return map[string]string{
		"solver": "gmres", "preconditioner": "jacobi",
		"tol": "1e-8", "maxits": "500", "restart": "30",
	}
}

func newTestService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	return svc
}

func gridReq(tenant string, gridN int) *service.SolveRequest {
	return &service.SolveRequest{
		Tenant:   tenant,
		Backend:  "petsc",
		Params:   gmresParams(),
		Operator: service.OperatorRef{ID: "grid", Version: 1, GridN: gridN},
	}
}

// checkResidual verifies a returned solution against the paper model
// problem with the all-ones default right-hand side.
func checkResidual(t *testing.T, gridN int, x []float64, tol float64) {
	t.Helper()
	a, _, err := mesh.PaperProblem(gridN).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	r := a.Residual(b, x)
	if rel := sparse.Norm2(r) / sparse.Norm2(b); rel > tol {
		t.Fatalf("relative residual %.3e exceeds %g", rel, tol)
	}
}

func TestServiceSolveAndReuse(t *testing.T) {
	svc := newTestService(t, service.Config{})
	req := gridReq("acme", 12)
	req.ReturnSolution = true
	var resp service.SolveResponse
	if serr := svc.Solve(context.Background(), req, &resp); serr != nil {
		t.Fatalf("first solve: %v", serr)
	}
	if !resp.Converged {
		t.Fatalf("first solve did not converge: %+v", resp)
	}
	if resp.SessionReused {
		t.Fatal("first solve cannot reuse a session")
	}
	if resp.FailReason != "none" || resp.Attempts != 1 || resp.Backend != "petsc" {
		t.Fatalf("unexpected classification: %+v", resp)
	}
	checkResidual(t, 12, resp.Solution, 1e-6)

	var resp2 service.SolveResponse
	if serr := svc.Solve(context.Background(), req, &resp2); serr != nil {
		t.Fatalf("second solve: %v", serr)
	}
	if !resp2.SessionReused {
		t.Fatal("second solve should hit the pooled session")
	}
	if !resp2.Converged {
		t.Fatalf("second solve did not converge: %+v", resp2)
	}
	st := svc.Stats()
	if st.Counters["sessions_built"] != 1 {
		t.Fatalf("sessions_built = %d, want 1", st.Counters["sessions_built"])
	}
	if st.Counters["solved"] != 2 {
		t.Fatalf("solved = %d, want 2", st.Counters["solved"])
	}
}

func TestServiceExplicitMatrixMultiProc(t *testing.T) {
	const gridN = 8
	a, _, err := mesh.PaperProblem(gridN).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, service.Config{})
	req := &service.SolveRequest{
		Tenant:  "acme",
		Backend: "petsc",
		Params:  gmresParams(),
		Procs:   2,
		Operator: service.OperatorRef{
			ID: "csr", Version: 3,
			Matrix: &service.MatrixPayload{N: a.Rows, RowPtr: a.RowPtr, ColInd: a.ColInd, Vals: a.Vals},
		},
		ReturnSolution: true,
	}
	var resp service.SolveResponse
	if serr := svc.Solve(context.Background(), req, &resp); serr != nil {
		t.Fatal(serr)
	}
	if !resp.Converged {
		t.Fatalf("not converged: %+v", resp)
	}
	checkResidual(t, gridN, resp.Solution, 1e-6)

	// Later requests may omit the operator body and reuse the pool.
	thin := &service.SolveRequest{
		Tenant: "acme", Backend: "petsc", Params: gmresParams(), Procs: 2,
		Operator: service.OperatorRef{ID: "csr", Version: 3},
	}
	var resp2 service.SolveResponse
	if serr := svc.Solve(context.Background(), thin, &resp2); serr != nil {
		t.Fatal(serr)
	}
	if !resp2.SessionReused || !resp2.Converged {
		t.Fatalf("thin request: reused=%v converged=%v", resp2.SessionReused, resp2.Converged)
	}
}

func TestServiceMultiRHS(t *testing.T) {
	const gridN = 8
	n := gridN * gridN
	svc := newTestService(t, service.Config{})
	req := gridReq("acme", gridN)
	req.NRHS = 3
	req.RHS = make([]float64, n*3)
	for k := 0; k < 3; k++ {
		for i := 0; i < n; i++ {
			req.RHS[k*n+i] = float64(k + 1)
		}
	}
	req.ReturnSolution = true
	var resp service.SolveResponse
	if serr := svc.Solve(context.Background(), req, &resp); serr != nil {
		t.Fatal(serr)
	}
	if !resp.Converged || resp.NRHS != 3 || len(resp.Solution) != n*3 {
		t.Fatalf("nrhs=%d len(sol)=%d converged=%v", resp.NRHS, len(resp.Solution), resp.Converged)
	}
	a, _, err := mesh.PaperProblem(gridN).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		r := a.Residual(req.RHS[k*n:(k+1)*n], resp.Solution[k*n:(k+1)*n])
		if rel := sparse.Norm2(r) / sparse.Norm2(req.RHS[k*n:(k+1)*n]); rel > 1e-6 {
			t.Fatalf("rhs %d: relative residual %.3e", k, rel)
		}
	}
}

func TestServiceMultiTenantConcurrent(t *testing.T) {
	svc := newTestService(t, service.Config{})
	tenants := []string{"alpha", "beta", "gamma"}
	const perTenant = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(tenants)*perTenant)
	for _, tenant := range tenants {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				var resp service.SolveResponse
				if serr := svc.Solve(context.Background(), gridReq(tenant, 10), &resp); serr != nil {
					errs <- fmt.Errorf("%s: %v", tenant, serr)
					return
				}
				if !resp.Converged {
					errs <- fmt.Errorf("%s: not converged", tenant)
				}
			}(tenant)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := svc.Stats()
	if st.Counters["solved"] != int64(len(tenants)*perTenant) {
		t.Fatalf("solved = %d, want %d", st.Counters["solved"], len(tenants)*perTenant)
	}
	// One pooled session per tenant (the tenant is part of the pool key).
	if st.Counters["sessions_built"] != int64(len(tenants)) {
		t.Fatalf("sessions_built = %d, want %d", st.Counters["sessions_built"], len(tenants))
	}
	for _, tenant := range tenants {
		ts, ok := st.Tenants[tenant]
		if !ok || ts.Requests != perTenant {
			t.Fatalf("tenant %s stats = %+v", tenant, ts)
		}
	}
}

func TestServiceTelemetryReport(t *testing.T) {
	svc := newTestService(t, service.Config{})
	req := gridReq("acme", 10)
	req.Telemetry = true
	var resp service.SolveResponse
	if serr := svc.Solve(context.Background(), req, &resp); serr != nil {
		t.Fatal(serr)
	}
	if resp.Report == nil {
		t.Fatal("telemetry request returned no report")
	}
	if resp.Report.Solver != "petsc" {
		t.Fatalf("report solver = %q", resp.Report.Solver)
	}
	if svc.Aggregator().Len() != 1 {
		t.Fatalf("aggregator has %d reports, want 1", svc.Aggregator().Len())
	}
	// Telemetry and non-telemetry traffic pool separately.
	plain := gridReq("acme", 10)
	var resp2 service.SolveResponse
	if serr := svc.Solve(context.Background(), plain, &resp2); serr != nil {
		t.Fatal(serr)
	}
	if resp2.SessionReused {
		t.Fatal("plain request must not reuse the telemetry session")
	}
	if resp2.Report != nil {
		t.Fatal("plain request should carry no report")
	}
}

// TestServiceTelemetryBounded: the service folds every telemetry
// report into its running summary and keeps only the most recent ones,
// so what it holds stops growing — 2,000 telemetry requests hold what
// 1,500 did — while the summary is, bit for bit, the fold of all 2,000
// reports in arrival order.
func TestServiceTelemetryBounded(t *testing.T) {
	const requests = 2000
	svc := newTestService(t, service.Config{})
	all := telemetry.NewAggregator()
	var held int
	for i := 1; i <= requests; i++ {
		req := gridReq("acme", 4)
		req.Telemetry = true
		var resp service.SolveResponse
		if serr := svc.Solve(context.Background(), req, &resp); serr != nil {
			t.Fatal(serr)
		}
		all.Record(resp.Report)
		if i == 1500 {
			held = len(svc.Aggregator().Reports())
		}
	}
	agg := svc.Aggregator()
	kept, every := agg.Reports(), all.Reports()
	if len(kept) != held || len(kept) >= requests {
		t.Fatalf("service holds %d reports after %d requests, %d after 1500", len(kept), requests, held)
	}
	for i, rep := range kept {
		if rep != every[len(every)-len(kept)+i] {
			t.Fatalf("kept report %d is not the %d-th most recent", i, len(kept)-i)
		}
	}
	if agg.Len() != requests {
		t.Fatalf("aggregator recorded %d reports, want %d", agg.Len(), requests)
	}
	if got, want := agg.Summarize(), all.Summarize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("running summary %+v, fold of every report %+v", got, want)
	}
}

func TestServiceSolveTimeoutAbortsAndRebuilds(t *testing.T) {
	svc := newTestService(t, service.Config{SolveTimeout: 50 * time.Millisecond})
	req := gridReq("acme", 16)
	// Unreachable tolerance: the solve burns its full deadline.
	req.Params["tol"] = "1e-300"
	req.Params["maxits"] = "1000000000"
	var resp service.SolveResponse
	serr := svc.Solve(context.Background(), req, &resp)
	if serr == nil {
		t.Fatalf("expected an aborted solve, got %+v", resp)
	}
	if serr.Code != service.CodeSolveAborted {
		t.Fatalf("code = %s, want %s (%v)", serr.Code, service.CodeSolveAborted, serr)
	}
	if serr.AbortReason != "deadline_exceeded" || serr.HTTPStatus() != 504 {
		t.Fatalf("abort_reason=%s status=%d, want deadline_exceeded/504", serr.AbortReason, serr.HTTPStatus())
	}
	if serr.FailReason != "aborted" || !serr.Retryable {
		t.Fatalf("fail_reason=%s retryable=%v", serr.FailReason, serr.Retryable)
	}

	// The next request on the same pool key rebuilds the poisoned
	// session. Its right-hand side is all zeros, so the solve stops at
	// iteration 0 on the absolute tolerance and the 50 ms deadline
	// bounds only the rebuild, never an iteration count.
	a, _, err := mesh.PaperProblem(16).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	req.RHS = make([]float64, a.Rows)
	var resp2 service.SolveResponse
	if serr := svc.Solve(context.Background(), req, &resp2); serr != nil {
		t.Fatalf("rebuild solve: %v", serr)
	}
	if resp2.SessionReused {
		t.Fatal("rebuilt session must not report reuse")
	}
	if !resp2.Converged || resp2.Iterations != 0 {
		t.Fatalf("rebuilt session: converged=%v after %d iterations, want true after 0", resp2.Converged, resp2.Iterations)
	}
	st := svc.Stats()
	if st.Counters["sessions_poisoned"] != 1 || st.Counters["sessions_built"] != 2 || st.Sessions != 1 {
		t.Fatalf("sessions_poisoned=%d sessions_built=%d pooled=%d, want 1, 2, 1",
			st.Counters["sessions_poisoned"], st.Counters["sessions_built"], st.Sessions)
	}
}

func TestServiceCallerCancellation(t *testing.T) {
	svc := newTestService(t, service.Config{})
	req := gridReq("acme", 16)
	req.Params["tol"] = "1e-300"
	req.Params["maxits"] = "1000000000"
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	var resp service.SolveResponse
	serr := svc.Solve(ctx, req, &resp)
	if serr == nil {
		t.Fatalf("expected cancellation, got %+v", resp)
	}
	if serr.Code != service.CodeSolveAborted {
		t.Fatalf("code = %s, want %s", serr.Code, service.CodeSolveAborted)
	}
}

func TestServiceEviction(t *testing.T) {
	svc := newTestService(t, service.Config{MaxSessions: 1})
	var resp service.SolveResponse
	if serr := svc.Solve(context.Background(), gridReq("acme", 8), &resp); serr != nil {
		t.Fatal(serr)
	}
	other := gridReq("acme", 10)
	other.Operator.ID = "grid2"
	if serr := svc.Solve(context.Background(), other, &resp); serr != nil {
		t.Fatal(serr)
	}
	st := svc.Stats()
	if st.Counters["sessions_evicted"] != 1 {
		t.Fatalf("sessions_evicted = %d, want 1", st.Counters["sessions_evicted"])
	}
	if st.Sessions != 1 {
		t.Fatalf("pool holds %d sessions, want 1", st.Sessions)
	}
}

func TestServiceTypedValidation(t *testing.T) {
	svc := newTestService(t, service.Config{})
	for _, tc := range []struct {
		name   string
		mutate func(*service.SolveRequest)
		code   string
		status int
	}{
		{"no tenant", func(r *service.SolveRequest) { r.Tenant = "" }, service.CodeBadRequest, 400},
		{"bad backend", func(r *service.SolveRequest) { r.Backend = "eigen" }, service.CodeUnknownBackend, 400},
		{"bad failover", func(r *service.SolveRequest) { r.Failover = []string{"nope"} }, service.CodeUnknownBackend, 400},
		{"procs too big", func(r *service.SolveRequest) { r.Procs = 512 }, service.CodeBadRequest, 400},
		{"workers too big", func(r *service.SolveRequest) { r.Workers = 17 }, service.CodeBadRequest, 400},
		// An explicit params.workers wins at session open: the bound is on it.
		{"params.workers too big", func(r *service.SolveRequest) { r.Params["workers"] = "17" }, service.CodeBadRequest, 400},
		{"no operator id", func(r *service.SolveRequest) { r.Operator.ID = "" }, service.CodeBadRequest, 400},
		{"operator body missing", func(r *service.SolveRequest) { r.Operator.GridN = 0 }, service.CodeOperatorMissing, 409},
		{"nrhs too big", func(r *service.SolveRequest) { r.NRHS = 10000 }, service.CodeBadRequest, 400},
		{"fault spec disabled", func(r *service.SolveRequest) { r.FaultSpec = "seed=1,pcrash=1" }, service.CodeFaultDisabled, 403},
		{"grid and matrix", func(r *service.SolveRequest) {
			r.Operator.Matrix = &service.MatrixPayload{N: 1, RowPtr: []int{0, 1}, ColInd: []int{0}, Vals: []float64{1}}
		}, service.CodeBadRequest, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := gridReq("acme", 8)
			tc.mutate(req)
			var resp service.SolveResponse
			serr := svc.Solve(context.Background(), req, &resp)
			if serr == nil {
				t.Fatal("expected a typed error")
			}
			if serr.Code != tc.code || serr.HTTPStatus() != tc.status {
				t.Fatalf("got %s/%d, want %s/%d (%v)", serr.Code, serr.HTTPStatus(), tc.code, tc.status, serr)
			}
		})
	}
}

func TestServiceReuseRejectsBadRHSLength(t *testing.T) {
	svc := newTestService(t, service.Config{})
	req := gridReq("acme", 8) // n = 64
	var resp service.SolveResponse
	if serr := svc.Solve(context.Background(), req, &resp); serr != nil {
		t.Fatalf("seed solve: %v", serr)
	}
	// A reuse request may omit the operator body, so validate cannot
	// size-check its RHS — the pool lookup must. Without it the short
	// slice reaches rankLoop's per-rank copy and panics a rank.
	bad := &service.SolveRequest{
		Tenant:   "acme",
		Backend:  "petsc",
		Params:   gmresParams(),
		Operator: service.OperatorRef{ID: "grid", Version: 1},
		RHS:      make([]float64, 7),
	}
	var badResp service.SolveResponse
	serr := svc.Solve(context.Background(), bad, &badResp)
	if serr == nil || serr.Code != service.CodeBadRequest || serr.HTTPStatus() != 400 {
		t.Fatalf("want %s/400, got %v", service.CodeBadRequest, serr)
	}
	// The rejection must not have touched the pooled session.
	var resp2 service.SolveResponse
	if serr := svc.Solve(context.Background(), req, &resp2); serr != nil {
		t.Fatalf("solve after rejected rhs: %v", serr)
	}
	if !resp2.SessionReused || !resp2.Converged {
		t.Fatalf("pooled session should have survived the rejection: %+v", resp2)
	}
}

// TestServiceRefusedRHSIsBadRequest: a right-hand side the backend
// refuses to stage (a NaN, which only the Go API can send: JSON has no
// NaN) is the caller's fault, a typed 400, never a solve against the
// previously staged right-hand side. The pooled session survives it: the
// next request reuses it and gets the bits a fresh service gives.
func TestServiceRefusedRHSIsBadRequest(t *testing.T) {
	const gridN = 8
	rhs := func(seed float64) []float64 {
		b := make([]float64, gridN*gridN)
		for i := range b {
			b[i] = seed + float64(i%7)
		}
		return b
	}
	for _, procs := range []int{1, 2} {
		req := func(b []float64) *service.SolveRequest {
			r := gridReq("acme", gridN)
			r.Procs, r.RHS, r.ReturnSolution = procs, b, true
			return r
		}
		var solo service.SolveResponse
		if serr := newTestService(t, service.Config{}).Solve(context.Background(), req(rhs(2)), &solo); serr != nil {
			t.Fatalf("procs %d: solo solve: %v", procs, serr)
		}

		svc := newTestService(t, service.Config{})
		var resp service.SolveResponse
		if serr := svc.Solve(context.Background(), req(rhs(1)), &resp); serr != nil {
			t.Fatalf("procs %d: warm-up solve: %v", procs, serr)
		}
		bad := rhs(2)
		bad[len(bad)-1] = math.NaN() // the last rank's rows only
		var badResp service.SolveResponse
		serr := svc.Solve(context.Background(), req(bad), &badResp)
		if serr == nil || serr.Code != service.CodeBadRequest || serr.HTTPStatus() != 400 || serr.Retryable {
			t.Fatalf("procs %d: NaN rhs: got %v (converged %t), want non-retryable %s/400", procs, serr, badResp.Converged, service.CodeBadRequest)
		}

		var after service.SolveResponse
		if serr := svc.Solve(context.Background(), req(rhs(2)), &after); serr != nil {
			t.Fatalf("procs %d: solve after the refused rhs: %v", procs, serr)
		}
		if !after.SessionReused || after.Iterations != solo.Iterations || len(after.Solution) != len(solo.Solution) {
			t.Fatalf("procs %d: after the refusal: reused %t, %d iterations, %d values; want the pooled session, %d iterations, %d values",
				procs, after.SessionReused, after.Iterations, len(after.Solution), solo.Iterations, len(solo.Solution))
		}
		for i, v := range after.Solution {
			if math.Float64bits(v) != math.Float64bits(solo.Solution[i]) {
				t.Fatalf("procs %d: x[%d] = %x after the refusal, %x solo", procs, i, math.Float64bits(v), math.Float64bits(solo.Solution[i]))
			}
		}
		if st := svc.Stats(); st.Counters["sessions_built"] != 1 {
			t.Fatalf("procs %d: sessions_built = %d, want 1", procs, st.Counters["sessions_built"])
		}
	}
}

func TestServiceOperatorConflict(t *testing.T) {
	svc := newTestService(t, service.Config{})
	var resp service.SolveResponse
	if serr := svc.Solve(context.Background(), gridReq("acme", 8), &resp); serr != nil {
		t.Fatal(serr)
	}
	changed := gridReq("acme", 10) // same id@version, different operator
	serr := svc.Solve(context.Background(), changed, &resp)
	if serr == nil || serr.Code != service.CodeOperatorConflict || serr.HTTPStatus() != 409 {
		t.Fatalf("got %v, want %s/409", serr, service.CodeOperatorConflict)
	}
}

// TestServiceSetupFailureIsTyped: a parameter the backend refuses — an
// unknown name, or a tolerance that is not a finite number — fails the
// set-up with a typed 400, never a solve on the default it replaced.
func TestServiceSetupFailureIsTyped(t *testing.T) {
	for _, params := range []map[string]string{
		{"solver": "no-such-method"},
		{"tol": "Inf"},
	} {
		svc := newTestService(t, service.Config{})
		req := gridReq("acme", 8)
		req.Params = params
		var resp service.SolveResponse
		serr := svc.Solve(context.Background(), req, &resp)
		if serr == nil || serr.Code != service.CodeSetupFailed || serr.HTTPStatus() != 400 {
			t.Fatalf("%v: got %v, want %s/400", params, serr, service.CodeSetupFailed)
		}
		// The failed entry must not stay pooled.
		if st := svc.Stats(); st.Sessions != 0 {
			t.Fatalf("%v: failed session left in pool: %d", params, st.Sessions)
		}
	}
}

// TestServiceOneRankSetUpFailureIsTyped: a preconditioner set-up that
// fails on one rank of a pooled two-rank entry is a typed reply on every
// rank, not a rank left waiting: a 200 naming the reason, without a
// solve deadline to end it, and the entry stays pooled and answers the
// same request the same way.
func TestServiceOneRankSetUpFailureIsTyped(t *testing.T) {
	a, _, err := mesh.PaperProblem(7).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	a = a.Clone()
	for k := a.RowPtr[0]; k < a.RowPtr[1]; k++ {
		if a.ColInd[k] == 0 {
			a.Vals[k] = 0 // rank 0's block only
		}
	}
	svc := newTestService(t, service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	req := &service.SolveRequest{
		Tenant:  "acme",
		Backend: "petsc",
		Params:  gmresParams(),
		Procs:   2,
		Operator: service.OperatorRef{
			ID: "zero-diagonal", Version: 1,
			Matrix: &service.MatrixPayload{N: a.Rows, RowPtr: a.RowPtr, ColInd: a.ColInd, Vals: a.Vals},
		},
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var replies [2]service.SolveResponse
	for i := range replies {
		hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(hr.Body)
		hr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hr.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %s", i, hr.StatusCode, body.Bytes())
		}
		r := &replies[i]
		if err := json.Unmarshal(body.Bytes(), r); err != nil {
			t.Fatal(err)
		}
		if r.FailReason != "singular" || r.Converged || r.Attempts != 1 || r.SessionReused != (i == 1) {
			t.Fatalf("request %d: %+v, want one run ending singular, reused only the second time", i, *r)
		}
		r.SessionReused, r.SolveWallS = false, 0
	}
	if !reflect.DeepEqual(replies[1], replies[0]) {
		t.Errorf("repeat reply %+v, want %+v", replies[1], replies[0])
	}
	if st := svc.Stats(); st.Counters["sessions_poisoned"] != 0 || st.Sessions != 1 {
		t.Errorf("sessions_poisoned = %d, pooled sessions = %d, want 0 and 1", st.Counters["sessions_poisoned"], st.Sessions)
	}
}

func TestServiceDrain(t *testing.T) {
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var resp service.SolveResponse
	if serr := svc.Solve(context.Background(), gridReq("acme", 8), &resp); serr != nil {
		t.Fatal(serr)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	serr := svc.Solve(context.Background(), gridReq("acme", 8), &resp)
	if serr == nil || serr.Code != service.CodeServerClosed {
		t.Fatalf("post-drain solve: got %v, want %s", serr, service.CodeServerClosed)
	}
	if st := svc.Stats(); st.Sessions != 0 || !st.Draining {
		t.Fatalf("post-drain stats: %+v", st)
	}
}

func TestServiceHTTP(t *testing.T) {
	svc := newTestService(t, service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(t *testing.T, body any) (*http.Response, []byte) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	hr, body := post(t, gridReq("wire", 10))
	if hr.StatusCode != 200 {
		t.Fatalf("solve status %d: %s", hr.StatusCode, body)
	}
	var sr service.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Converged || sr.Tenant != "wire" {
		t.Fatalf("wire response: %+v", sr)
	}

	// Typed error body for a bad request.
	hr, body = post(t, map[string]any{"tenant": "wire", "backend": "bogus",
		"operator": map[string]any{"id": "g", "grid_n": 4}})
	if hr.StatusCode != 400 {
		t.Fatalf("bad backend status %d", hr.StatusCode)
	}
	var wire struct {
		Error service.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Error.Code != service.CodeUnknownBackend {
		t.Fatalf("error code %q", wire.Error.Code)
	}

	// Unknown fields are rejected, not silently dropped — the retired
	// "format" selection and "max_attempts" retry count included.
	for field, value := range map[string]any{"format": "sell", "max_attempts": 2} {
		hr, body = post(t, map[string]any{"tenant": "wire", "backend": "petsc",
			"operator": map[string]any{"id": "g", "grid_n": 4}, field: value})
		if hr.StatusCode != 400 || !bytes.Contains(body, []byte("unknown field")) {
			t.Fatalf("unknown field %q: status %d: %s", field, hr.StatusCode, body)
		}
	}

	for _, ep := range []string{"/v1/healthz", "/v1/stats", "/v1/backends", "/debug/vars"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s status %d", ep, resp.StatusCode)
		}
	}

	var stats service.Stats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Counters["solved"] != 1 {
		t.Fatalf("stats solved = %d", stats.Counters["solved"])
	}
}

// TestServiceHTTPBreakdownReply: a solve that breaks down on overflow
// leaves a NaN residual and solution. The 200 still carries a body that
// decodes, with each non-finite value as null, and names the failure.
func TestServiceHTTPBreakdownReply(t *testing.T) {
	svc := newTestService(t, service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	const n = 4
	m := &service.MatrixPayload{N: n}
	for i := 0; i <= n; i++ {
		m.RowPtr = append(m.RowPtr, i*n)
	}
	for i := 0; i < n*n; i++ {
		m.ColInd = append(m.ColInd, i%n)
		m.Vals = append(m.Vals, 1.7e308)
	}
	for _, solver := range []string{"gmres", "cg"} {
		for _, telemetry := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/telemetry=%v", solver, telemetry), func(t *testing.T) {
				req := &service.SolveRequest{
					Tenant: "wire", Backend: "petsc", ReturnSolution: true, Telemetry: telemetry,
					Params:   map[string]string{"solver": solver, "preconditioner": "none"},
					Operator: service.OperatorRef{ID: "overflow-" + solver, Version: 1, Matrix: m},
				}
				raw, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				var body bytes.Buffer
				_, err = body.ReadFrom(hr.Body)
				hr.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if hr.StatusCode != 200 || hr.ContentLength != int64(body.Len()) {
					t.Fatalf("status %d, Content-Length %d for %d bytes: %s", hr.StatusCode, hr.ContentLength, body.Len(), &body)
				}
				var sr service.SolveResponse
				if err := json.Unmarshal(body.Bytes(), &sr); err != nil {
					t.Fatalf("reply does not decode: %v\n%s", err, &body)
				}
				if sr.FailReason != "breakdown" || sr.Converged || len(sr.Solution) != n {
					t.Fatalf("fail_reason %q, converged %v, %d solution values, want breakdown, false, %d:\n%s",
						sr.FailReason, sr.Converged, len(sr.Solution), n, &body)
				}
				if !bytes.Contains(body.Bytes(), []byte(`"residual":null`)) {
					t.Errorf("the NaN residual is not null:\n%s", &body)
				}
				if telemetry && (sr.Report == nil || sr.Report.Converged) {
					t.Errorf("telemetry report %+v, want one of an unconverged solve", sr.Report)
				}
			})
		}
	}
}

// TestServiceHTTPBodyTooLarge: a body past MaxBodyBytes is a 413 with
// a bad_request error body.
func TestServiceHTTPBodyTooLarge(t *testing.T) {
	svc := newTestService(t, service.Config{MaxBodyBytes: 1 << 10})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	req := gridReq("wire", 8)
	req.RHS = make([]float64, 1<<10)
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var wire struct {
		Error service.Error `json:"error"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusRequestEntityTooLarge || wire.Error.Code != service.CodeBadRequest {
		t.Fatalf("status %d, code %q, want 413 %s", hr.StatusCode, wire.Error.Code, service.CodeBadRequest)
	}
}

// TestServiceHTTPConcurrentReplies: concurrent requests each read and
// write their own body buffer. Client k sends k·b for a power of two k,
// so an exact superlu reply is k·x bit for bit; a buffer shared between
// two requests would show as another client's solution.
func TestServiceHTTPConcurrentReplies(t *testing.T) {
	svc := newTestService(t, service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	const gridN, clients, rounds = 6, 4, 8
	n := gridN * gridN
	post := func(scale float64) ([]float64, error) {
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = scale * float64(1+i%5)
		}
		raw, err := json.Marshal(&service.SolveRequest{Tenant: "wire", Backend: "superlu", ReturnSolution: true,
			Operator: service.OperatorRef{ID: "grid", Version: 1, GridN: gridN}, RHS: rhs})
		if err != nil {
			return nil, err
		}
		hr, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		defer hr.Body.Close()
		var sr service.SolveResponse
		if err := json.NewDecoder(hr.Body).Decode(&sr); err != nil {
			return nil, err
		}
		return sr.Solution, nil
	}
	base, err := post(1)
	if err != nil || len(base) != n {
		t.Fatalf("base solve: %d values, %v", len(base), err)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(scale float64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				x, err := post(scale)
				if err != nil || len(x) != n {
					t.Errorf("scale %g: %d values, %v", scale, len(x), err)
					return
				}
				for i := range base {
					if x[i] != scale*base[i] {
						t.Errorf("scale %g: x[%d] = %g, want %g", scale, i, x[i], scale*base[i])
						return
					}
				}
			}
		}(float64(int(1) << c))
	}
	wg.Wait()
}

func TestServiceErrorString(t *testing.T) {
	svc := newTestService(t, service.Config{})
	var resp service.SolveResponse
	serr := svc.Solve(context.Background(), &service.SolveRequest{}, &resp)
	if serr == nil {
		t.Fatal("expected validation error")
	}
	if !strings.Contains(serr.Error(), service.CodeBadRequest) {
		t.Fatalf("Error() = %q", serr.Error())
	}
}

// mmBody renders a matrix as a verbatim Matrix Market file body — the
// exchange-format ingestion path of the operator spec.
func mmBody(t *testing.T, a *sparse.CSR, sym sparse.MMSymmetry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, a, sym); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServiceMatrixMarketOperator: a request may carry the operator as
// a verbatim .mtx body, in coordinate or in dense array format.
// Symmetric storage is expanded server-side, the solve converges against
// the expanded operator, and later requests ride the pooled session
// without resending the file.
func TestServiceMatrixMarketOperator(t *testing.T) {
	lap := sparse.Laplace2D(7, 7)
	cases := []struct {
		name string
		a    *sparse.CSR
		body string
	}{
		{"coordinate-symmetric", lap, mmBody(t, lap, sparse.MMSymmetric)},
		// Column-major, each column from the diagonal down.
		{"array-symmetric", sparse.Tridiag(3, -1, 4, -1),
			"%%MatrixMarket matrix array real symmetric\n3 3\n4\n-1\n0\n4\n-1\n4\n"},
	}
	svc := newTestService(t, service.Config{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := &service.SolveRequest{
				Tenant:         "acme",
				Backend:        "petsc",
				Params:         gmresParams(),
				Procs:          2,
				Operator:       service.OperatorRef{ID: tc.name, Version: 1, MatrixMarket: tc.body},
				ReturnSolution: true,
			}
			var resp service.SolveResponse
			if serr := svc.Solve(context.Background(), req, &resp); serr != nil {
				t.Fatal(serr)
			}
			if !resp.Converged {
				t.Fatalf("not converged: %+v", resp)
			}
			b := make([]float64, tc.a.Rows)
			for i := range b {
				b[i] = 1
			}
			r := tc.a.Residual(b, resp.Solution)
			if rel := sparse.Norm2(r) / sparse.Norm2(b); rel > 1e-6 {
				t.Fatalf("relative residual %.3e against the expanded operator", rel)
			}

			thin := &service.SolveRequest{
				Tenant: "acme", Backend: "petsc", Params: gmresParams(), Procs: 2,
				Operator: service.OperatorRef{ID: tc.name, Version: 1},
			}
			var resp2 service.SolveResponse
			if serr := svc.Solve(context.Background(), thin, &resp2); serr != nil {
				t.Fatal(serr)
			}
			if !resp2.SessionReused || !resp2.Converged {
				t.Fatalf("thin request: reused=%v converged=%v", resp2.SessionReused, resp2.Converged)
			}
		})
	}
}

// TestServiceMatrixMarketRejections: malformed, pattern, non-square,
// non-finite and ambiguous operator bodies are typed 400s that leave
// nothing in the session pool; an .mtx body colliding
// with a pooled grid operator under the same id@version is a typed 409.
func TestServiceMatrixMarketRejections(t *testing.T) {
	svc := newTestService(t, service.Config{})
	mmReq := func(body string) *service.SolveRequest {
		return &service.SolveRequest{
			Tenant: "acme", Backend: "petsc", Params: gmresParams(),
			Operator: service.OperatorRef{ID: "bad", Version: 1, MatrixMarket: body},
		}
	}
	cases := []struct {
		name string
		req  *service.SolveRequest
		code string
	}{
		{"pattern field", mmReq("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"), service.CodeBadRequest},
		{"malformed header", mmReq("%%MatrixMarket tensor coordinate real general\n1 1 1\n1 1 1\n"), service.CodeBadRequest},
		{"non-square", mmReq("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n"), service.CodeBadRequest},
		{"non-finite entry", mmReq("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 nan\n"), service.CodeBadRequest},
		{"exclusive with grid_n", func() *service.SolveRequest {
			r := mmReq("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n")
			r.Operator.GridN = 4
			return r
		}(), service.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp service.SolveResponse
			serr := svc.Solve(context.Background(), tc.req, &resp)
			if serr == nil {
				t.Fatalf("expected a typed error, got %+v", resp)
			}
			if serr.Code != tc.code || serr.HTTPStatus() != 400 {
				t.Fatalf("got %s/%d, want %s/400 (%v)", serr.Code, serr.HTTPStatus(), tc.code, serr)
			}
			if st := svc.Stats(); st.Sessions != 0 {
				t.Fatalf("rejected body left %d pooled session(s)", st.Sessions)
			}
		})
	}

	// Pool a grid operator, then collide an .mtx body into its slot.
	grid := gridReq("acme", 8)
	grid.Operator.ID, grid.Operator.Version = "shared", 2
	var resp service.SolveResponse
	if serr := svc.Solve(context.Background(), grid, &resp); serr != nil {
		t.Fatal(serr)
	}
	a := sparse.Tridiag(8, -1, 2, -1)
	coll := &service.SolveRequest{
		Tenant: "acme", Backend: "petsc", Params: gmresParams(),
		Operator: service.OperatorRef{ID: "shared", Version: 2, MatrixMarket: mmBody(t, a, sparse.MMGeneral)},
	}
	serr := svc.Solve(context.Background(), coll, &resp)
	if serr == nil {
		t.Fatal("expected an operator conflict")
	}
	if serr.Code != service.CodeOperatorConflict || serr.HTTPStatus() != 409 {
		t.Fatalf("got %s/%d, want %s/409", serr.Code, serr.HTTPStatus(), service.CodeOperatorConflict)
	}
}
