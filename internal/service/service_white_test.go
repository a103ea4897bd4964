// White-box tests: shedding and queueing need the dispatcher held at a
// deterministic point (dispatchGate), which only this package can reach.
package service

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/sparse"
)

func whiteParams() map[string]string {
	return map[string]string{
		"solver": "gmres", "preconditioner": "jacobi",
		"tol": "1e-8", "maxits": "500", "restart": "30",
	}
}

func whiteReq(tenant, opID string, gridN int) *SolveRequest {
	return &SolveRequest{
		Tenant:   tenant,
		Backend:  "petsc",
		Params:   whiteParams(),
		Operator: OperatorRef{ID: opID, Version: 1, GridN: gridN},
	}
}

// gatedService returns a service whose entry dispatchers block on the
// returned gate before serving their first job, so tests can fill
// queues deterministically.
func gatedService(t *testing.T, cfg Config) (*Service, chan struct{}) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	svc.dispatchGate = gate
	t.Cleanup(func() { _ = svc.Close() })
	return svc, gate
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// queuedJobs counts jobs sitting in entry queues (len on a channel is
// safe concurrently).
func queuedJobs(svc *Service) int {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	n := 0
	for _, e := range svc.entries {
		n += len(e.jobs)
	}
	return n
}

// TestServiceQueuedRequestsSolveAlone: requests queued behind a busy
// session are each served as their own solve round. Every reply carries
// its own solution and the same iterations and residual, to the bit, as
// its right-hand side sent alone to a fresh service.
func TestServiceQueuedRequestsSolveAlone(t *testing.T) {
	const gridN = 8
	n := gridN * gridN
	svc, gate := gatedService(t, Config{})

	const k = 3
	type result struct {
		resp SolveResponse
		err  *Error
	}
	rhs := make([][]float64, k)
	for i := range rhs {
		rhs[i] = make([]float64, n)
		for j := range rhs[i] {
			rhs[i][j] = float64((j*(i+2))%5 + 1)
		}
	}
	req := func(i int) *SolveRequest {
		r := whiteReq("acme", "op", gridN)
		r.RHS = rhs[i]
		r.ReturnSolution = true
		return r
	}
	results := make([]result, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i].err = svc.Solve(context.Background(), req(i), &results[i].resp)
		}(i)
	}
	waitFor(t, "all jobs queued", func() bool { return queuedJobs(svc) == k })
	close(gate)
	wg.Wait()

	a, _, err := mesh.PaperProblem(gridN).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.resp.Batched {
			t.Fatalf("request %d: batched=true, want false", i)
		}
		if !r.resp.Converged {
			t.Fatalf("request %d not converged", i)
		}
		res := a.Residual(rhs[i], r.resp.Solution)
		if rel := sparse.Norm2(res) / sparse.Norm2(rhs[i]); rel > 1e-6 {
			t.Fatalf("request %d: relative residual %.3e", i, rel)
		}

		alone, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		var want SolveResponse
		serr := alone.Solve(context.Background(), req(i), &want)
		_ = alone.Close()
		if serr != nil {
			t.Fatalf("request %d alone: %v", i, serr)
		}
		if r.resp.Iterations != want.Iterations ||
			math.Float64bits(r.resp.Residual) != math.Float64bits(want.Residual) {
			t.Errorf("request %d: iterations %d residual %v queued, %d %v alone",
				i, r.resp.Iterations, r.resp.Residual, want.Iterations, want.Residual)
		}
	}
}

func TestServiceQueueFullShedding(t *testing.T) {
	svc, gate := gatedService(t, Config{QueueDepth: 2})
	var wg sync.WaitGroup
	errs := make([]*Error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp SolveResponse
			errs[i] = svc.Solve(context.Background(), whiteReq("acme", "op", 8), &resp)
		}(i)
	}
	waitFor(t, "queue filled", func() bool { return queuedJobs(svc) == 2 })

	var resp SolveResponse
	serr := svc.Solve(context.Background(), whiteReq("acme", "op", 8), &resp)
	if serr == nil || serr.Code != CodeQueueFull || serr.HTTPStatus() != 429 {
		t.Fatalf("got %v, want %s/429", serr, CodeQueueFull)
	}
	if !serr.Retryable {
		t.Fatal("queue_full must be retryable")
	}
	close(gate)
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("queued request %d failed: %v", i, e)
		}
	}
	if got := svc.cnt.ShedQueueFull.Load(); got != 1 {
		t.Fatalf("shed_queue_full = %d, want 1", got)
	}
}

func TestServiceTenantQuota(t *testing.T) {
	svc, gate := gatedService(t, Config{TenantMaxPending: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	var firstErr *Error
	go func() {
		defer wg.Done()
		var resp SolveResponse
		firstErr = svc.Solve(context.Background(), whiteReq("acme", "op", 8), &resp)
	}()
	waitFor(t, "first request pending", func() bool {
		return svc.Stats().Tenants["acme"].Pending == 1
	})

	var resp SolveResponse
	serr := svc.Solve(context.Background(), whiteReq("acme", "op", 8), &resp)
	if serr == nil || serr.Code != CodeTenantQuota || serr.HTTPStatus() != 429 {
		t.Fatalf("got %v, want %s/429", serr, CodeTenantQuota)
	}
	// Another tenant is not throttled by acme's quota: it sheds only if
	// it hits its own limits (here it would build a new gated entry, so
	// just verify admission passes the quota check by checking the shed
	// counter attribution).
	if got := svc.Stats().Tenants["acme"].Shed; got != 1 {
		t.Fatalf("acme shed = %d, want 1", got)
	}
	close(gate)
	wg.Wait()
	if firstErr != nil {
		t.Fatalf("first request: %v", firstErr)
	}
}

func TestServiceOverloaded(t *testing.T) {
	svc, gate := gatedService(t, Config{MaxPending: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var resp SolveResponse
		_ = svc.Solve(context.Background(), whiteReq("acme", "op", 8), &resp)
	}()
	waitFor(t, "first request pending", func() bool { return svc.pending.Load() == 1 })

	var resp SolveResponse
	serr := svc.Solve(context.Background(), whiteReq("beta", "op", 8), &resp)
	if serr == nil || serr.Code != CodeOverloaded || serr.HTTPStatus() != 503 {
		t.Fatalf("got %v, want %s/503", serr, CodeOverloaded)
	}
	close(gate)
	wg.Wait()
}

func TestServicePoolFullWhenBusy(t *testing.T) {
	svc, gate := gatedService(t, Config{MaxSessions: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var resp SolveResponse
		_ = svc.Solve(context.Background(), whiteReq("acme", "opA", 8), &resp)
	}()
	waitFor(t, "opA pending", func() bool { return queuedJobs(svc) == 1 })

	var resp SolveResponse
	serr := svc.Solve(context.Background(), whiteReq("acme", "opB", 8), &resp)
	if serr == nil || serr.Code != CodePoolFull || serr.HTTPStatus() != 503 {
		t.Fatalf("got %v, want %s/503", serr, CodePoolFull)
	}
	close(gate)
	wg.Wait()
	if got := svc.cnt.ShedPoolFull.Load(); got != 1 {
		t.Fatalf("shed_pool_full = %d, want 1", got)
	}
}

// TestServiceDrainWhileInflight pins the SIGTERM semantics: in-flight
// solves finish and succeed, concurrent new requests are shed with the
// typed draining status, and Drain returns cleanly.
func TestServiceDrainWhileInflight(t *testing.T) {
	svc, gate := gatedService(t, Config{})
	var wg sync.WaitGroup
	wg.Add(1)
	var inflight SolveResponse
	var inflightErr *Error
	go func() {
		defer wg.Done()
		inflightErr = svc.Solve(context.Background(), whiteReq("acme", "op", 10), &inflight)
	}()
	waitFor(t, "request in flight", func() bool { return queuedJobs(svc) == 1 })

	drainDone := make(chan error, 1)
	go func() { drainDone <- svc.Drain(context.Background()) }()
	waitFor(t, "draining flag", svc.Draining)

	var resp SolveResponse
	serr := svc.Solve(context.Background(), whiteReq("acme", "op", 10), &resp)
	if serr == nil || serr.Code != CodeDraining || serr.HTTPStatus() != 503 {
		t.Fatalf("got %v, want %s/503", serr, CodeDraining)
	}

	close(gate) // let the in-flight solve run
	wg.Wait()
	if inflightErr != nil {
		t.Fatalf("in-flight request failed during drain: %v", inflightErr)
	}
	if !inflight.Converged {
		t.Fatal("in-flight request did not converge")
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	if st := svc.Stats(); st.Sessions != 0 {
		t.Fatalf("sessions after drain = %d, want 0", st.Sessions)
	}
}

// TestServiceForcedDrain pins the timeout path: a drain whose context
// expires aborts the remaining worlds instead of waiting forever.
func TestServiceForcedDrain(t *testing.T) {
	svc, _ := gatedService(t, Config{}) // gate never released: solve hangs
	var wg sync.WaitGroup
	wg.Add(1)
	var inflightErr *Error
	go func() {
		defer wg.Done()
		var resp SolveResponse
		inflightErr = svc.Solve(context.Background(), whiteReq("acme", "op", 8), &resp)
	}()
	waitFor(t, "request in flight", func() bool { return queuedJobs(svc) == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); err == nil {
		t.Fatal("forced drain should report the context cause")
	}
	wg.Wait()
	if inflightErr == nil {
		t.Fatal("the stranded request must fail with a typed status")
	}
	if inflightErr.Code != CodeSolveAborted && inflightErr.Code != CodeSessionAborted {
		t.Fatalf("stranded request code = %s", inflightErr.Code)
	}
}

func TestServicePoolKeyIsolation(t *testing.T) {
	base := whiteReq("acme", "op", 8)
	for i, mutate := range []func(*SolveRequest){
		func(r *SolveRequest) { r.Tenant = "beta" },
		func(r *SolveRequest) { r.Backend = "superlu" },
		func(r *SolveRequest) { r.Procs = 2 },
		func(r *SolveRequest) { r.Operator.Version = 2 },
		func(r *SolveRequest) { r.Params["tol"] = "1e-6" },
		func(r *SolveRequest) { r.Failover = []string{"superlu"} },
		func(r *SolveRequest) { r.Telemetry = true },
	} {
		other := whiteReq("acme", "op", 8)
		mutate(other)
		if base.key() == other.key() {
			t.Errorf("mutation %d did not change the pool key %+v", i, base.key())
		}
	}
	same := whiteReq("acme", "op", 8)
	if base.key() != same.key() {
		t.Errorf("identical requests have different keys: %+v vs %+v", base.key(), same.key())
	}
}

// TestServicePoolKeyUnambiguous: free-form fields cannot run into their
// neighbours. Both pairs produced one and the same key while it was a
// "|"/"="-joined string, so the second request rode the first one's
// pooled session — with parameters nobody validated, or across tenants.
func TestServicePoolKeyUnambiguous(t *testing.T) {
	split := whiteReq("acme", "op", 8)
	split.Params = map[string]string{"maxits": "5", "tol": "1e-8"}
	joined := whiteReq("acme", "op", 8)
	joined.Params = map[string]string{"maxits": "5|tol=1e-8"}
	if split.key() == joined.key() {
		t.Errorf("a parameter value spelling out the next parameter shares the key %+v", split.key())
	}

	victim := whiteReq("a|petsc|p0|w0|b", "op", 8)
	crafted := whiteReq("a", "b|petsc|p0|w0|op", 8)
	if victim.key() == crafted.key() {
		t.Errorf("a crafted operator id reaches another tenant's key %+v", victim.key())
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	for name, v := range map[string]int{
		"DefaultProcs": cfg.DefaultProcs, "MaxProcs": cfg.MaxProcs,
		"MaxSessions": cfg.MaxSessions, "QueueDepth": cfg.QueueDepth,
		"MaxPending": cfg.MaxPending, "TenantMaxPending": cfg.TenantMaxPending,
		"MaxNRHS": cfg.MaxNRHS, "MaxUnknowns": cfg.MaxUnknowns,
	} {
		if v <= 0 {
			t.Errorf("%s defaulted to %d", name, v)
		}
	}
	if cfg.MaxBodyBytes <= 0 || cfg.DrainTimeout <= 0 {
		t.Error("body/drain defaults missing")
	}
	if cfg.SolveTimeout != 0 {
		t.Error("SolveTimeout must default to disabled")
	}
}

func TestNewRejectsFaultSpecWithoutEnable(t *testing.T) {
	if _, err := New(Config{FaultSpec: "seed=1,pcrash=1"}); err == nil {
		t.Fatal("New must reject FaultSpec without EnableFaultInjection")
	}
	if !faultInjectionCompiled {
		if _, err := New(Config{EnableFaultInjection: true, FaultSpec: "seed=1,pcrash=1"}); err == nil {
			t.Fatal("New must reject FaultSpec in a production build")
		}
	}
}
