package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/service"
	"repro/internal/sparse"
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

	// The poisoned session is rebuilt transparently by the next request.
	good := gridReq("acme", 16)
	var resp2 service.SolveResponse
	if serr := svc.Solve(context.Background(), good, &resp2); serr != nil {
		t.Fatalf("rebuild solve: %v", serr)
	}
	if resp2.SessionReused {
		t.Fatal("rebuilt session must not report reuse")
	}
	if !resp2.Converged {
		t.Fatal("rebuilt session did not converge")
	}
	st := svc.Stats()
	if st.Counters["sessions_poisoned"] != 1 {
		t.Fatalf("sessions_poisoned = %d, want 1", st.Counters["sessions_poisoned"])
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

func TestServiceSetupFailureIsTyped(t *testing.T) {
	svc := newTestService(t, service.Config{})
	req := gridReq("acme", 8)
	req.Params = map[string]string{"solver": "no-such-method"}
	var resp service.SolveResponse
	serr := svc.Solve(context.Background(), req, &resp)
	if serr == nil || serr.Code != service.CodeSetupFailed {
		t.Fatalf("got %v, want %s", serr, service.CodeSetupFailed)
	}
	// The failed entry must not stay pooled.
	if st := svc.Stats(); st.Sessions != 0 {
		t.Fatalf("failed session left in pool: %d", st.Sessions)
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
