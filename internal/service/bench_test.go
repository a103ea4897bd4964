package service_test

import (
	"context"
	"testing"

	"repro/internal/service"
)

// BenchmarkServiceSolveReuse measures the full service request path —
// admission, quota accounting, pool lookup, dispatch, solve, reply —
// against a warm pooled session. This is the gate proving the service
// layer keeps pooled repeat solves on the session's zero-allocation
// steady-state path: scripts/benchguard.sh pins its allocs/op. The
// request uses an uncancellable context and no solve timeout (the
// session's background-context fast path). HTTP callers pay for context
// binding and JSON on top, and that is not small: on service-mixed's
// pooled superlu requests the wire path was ≈ 90 % of a request before
// the one-pass reader and compact writer (BenchmarkServiceWire,
// docs/PERFORMANCE.md "Service wire path").
func BenchmarkServiceSolveReuse(b *testing.B) {
	for _, tc := range []struct {
		name    string
		backend string
		params  map[string]string
	}{
		{"superlu", "superlu", map[string]string{}},
		{"petsc", "petsc", map[string]string{
			"solver": "gmres", "preconditioner": "jacobi",
			"tol": "1e-8", "maxits": "500", "restart": "30"}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			svc, err := service.New(service.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			const gridN = 16
			n := gridN * gridN
			rhs := make([]float64, n)
			for i := range rhs {
				rhs[i] = 1
			}
			req := &service.SolveRequest{
				Tenant:   "bench",
				Backend:  tc.backend,
				Params:   tc.params,
				RHS:      rhs,
				Operator: service.OperatorRef{ID: "grid", Version: 1, GridN: gridN},
			}
			resp := &service.SolveResponse{}
			ctx := context.Background()
			for i := 0; i < 2; i++ { // build the pool, warm every buffer
				if serr := svc.Solve(ctx, req, resp); serr != nil {
					b.Fatal(serr)
				}
				if !resp.Converged {
					b.Fatalf("warmup solve did not converge: %+v", resp)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if serr := svc.Solve(ctx, req, resp); serr != nil {
					b.Fatal(serr)
				}
			}
		})
	}
}
