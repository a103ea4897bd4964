// Package service is the solver-as-a-service front end: a long-running
// HTTP+JSON surface over the internal/core registry and Session
// lifecycle (docs/SERVICE.md). It pools one SPMD world + Session per
// (tenant, backend, operator version) so repeated solves against the
// same operator ride the zero-allocation steady-state path (the
// component's distVer/cfgVer caches stay warm across requests), applies
// admission control with bounded queues and typed 429/503 load
// shedding, enforces per-tenant quotas, coalesces queued requests that
// share an operator into one multi-RHS solve, and drains gracefully on
// SIGTERM. Injected faults (internal/fault specs, compiled in only
// under the faultinject build tag) surface as typed JSON error statuses
// carrying FailReason/Attempts/Backend — never as hangs — extending the
// chaos-suite guarantees across the network boundary.
package service

import (
	"fmt"
	"net/http"

	"repro/internal/telemetry"
)

// Typed error codes of the service wire contract. Clients branch on
// Code, never on Message; the HTTP status is derived from the code
// (429 for per-tenant pressure, 503 for server-wide shedding).
const (
	// CodeBadRequest: malformed body, dimensions, or argument ranges.
	CodeBadRequest = "bad_request"
	// CodeUnknownBackend: backend (or failover) name not in the registry.
	CodeUnknownBackend = "unknown_backend"
	// CodeOperatorMissing: the operator id@version is not pooled and the
	// request carried neither a matrix nor a generator to build it.
	CodeOperatorMissing = "operator_missing"
	// CodeOperatorConflict: the request's operator payload disagrees
	// with the one already pooled under the same id@version.
	CodeOperatorConflict = "operator_conflict"
	// CodeTenantQuota: the tenant exceeded its pending-request quota (429).
	CodeTenantQuota = "tenant_quota_exceeded"
	// CodeQueueFull: the operator's session queue is at capacity (429).
	CodeQueueFull = "queue_full"
	// CodeOverloaded: the server-wide pending cap is reached (503).
	CodeOverloaded = "overloaded"
	// CodeDraining: the server is draining after SIGTERM; new work is
	// shed (503) while in-flight solves finish.
	CodeDraining = "draining"
	// CodePoolFull: the session pool is at capacity and every pooled
	// session is busy, so nothing can be evicted (503).
	CodePoolFull = "pool_full"
	// CodeServerClosed: drain has completed; the instance serves nothing.
	CodeServerClosed = "server_closed"
	// CodeSetupFailed: the backend rejected the staged operator or
	// parameters when the pooled session was built.
	CodeSetupFailed = "setup_failed"
	// CodeSolveAborted: the solve was killed mid-flight — injected
	// fault, per-solve deadline, or caller cancellation. FailReason,
	// AbortReason, Attempts and Backend identify the typed cause.
	CodeSolveAborted = "solve_aborted"
	// CodeSessionAborted: the request was queued on a pooled session
	// whose world another request's abort poisoned; retryable — the
	// next request rebuilds the session.
	CodeSessionAborted = "session_aborted"
	// CodeFaultDisabled: a fault spec was supplied but injection is not
	// enabled (or not compiled in: it exists only under the faultinject
	// build tag).
	CodeFaultDisabled = "fault_injection_disabled"
	// CodeBadFaultSpec: the fault spec did not parse (fault.ParseSpec).
	CodeBadFaultSpec = "bad_fault_spec"
)

// Error is the typed JSON error body ({"error": {...}} on the wire).
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Retryable hints that an identical request may succeed later
	// (load shedding, a poisoned session that the next request rebuilds).
	Retryable bool `json:"retryable,omitempty"`

	// Solve classification, set when the error reports a killed solve
	// (CodeSolveAborted): the session layer's typed FailReason, the
	// abort cause, how many backend runs were attempted, and which
	// backend produced the result.
	FailReason  string `json:"fail_reason,omitempty"`
	AbortReason string `json:"abort_reason,omitempty"`
	Attempts    int    `json:"attempts,omitempty"`
	Backend     string `json:"backend,omitempty"`

	httpStatus int
}

// Error implements error.
func (e *Error) Error() string { return e.Code + ": " + e.Message }

// HTTPStatus returns the HTTP status the error is served with.
func (e *Error) HTTPStatus() int {
	if e.httpStatus == 0 {
		return http.StatusInternalServerError
	}
	return e.httpStatus
}

func errf(code string, status int, retryable bool, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...), Retryable: retryable, httpStatus: status}
}

// MatrixPayload is an explicit CSR operator on the wire — the LIS-style
// call shape: arbitrary CSR in, options map, solve. Column indices are
// global; the server block-row partitions the matrix over the session's
// ranks.
type MatrixPayload struct {
	N      int       `json:"n"`
	RowPtr []int     `json:"rowptr"`
	ColInd []int     `json:"colind"`
	Vals   []float64 `json:"vals"`
}

// OperatorRef names the operator a request solves against. ID and
// Version key the session pool (together with tenant, backend, procs
// and parameters): the first request for a key must carry the operator
// body (Matrix, or GridN for the paper's §8[a] model problem); later
// requests may omit it and reuse the pooled, already-factorized
// session.
type OperatorRef struct {
	ID      string `json:"id"`
	Version int    `json:"version,omitempty"`
	// GridN builds the paper's 2-D model problem with GridN² unknowns
	// server-side (mesh.PaperProblem) — the scenario-ingestion path.
	GridN int `json:"grid_n,omitempty"`
	// Matrix is an explicit global CSR operator (exclusive with GridN).
	Matrix *MatrixPayload `json:"matrix,omitempty"`
	// MatrixMarket is a Matrix Market (.mtx) file, verbatim — the
	// exchange-format ingestion path (exclusive with GridN and Matrix).
	// Coordinate/array formats with real/integer fields and
	// general/symmetric storage are accepted; pattern and complex
	// files are rejected as bad requests.
	MatrixMarket string `json:"matrix_market,omitempty"`
}

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Tenant namespaces quotas, pooled sessions and telemetry.
	Tenant string `json:"tenant"`
	// Backend is the registry name (petsc, trilinos, superlu, mg, ...).
	Backend string `json:"backend"`
	// Params are LISI key=value parameters applied at session open.
	Params map[string]string `json:"params,omitempty"`
	// Procs is the SPMD world size of the pooled session (default 1).
	Procs int `json:"procs,omitempty"`
	// Workers is the intra-rank worker-pool size for the backend's hot
	// kernels (second parallelism level under the SPMD ranks; default
	// from the server's -workers flag, normally 1). Results are
	// bitwise-identical for every worker count, so this is a pure
	// performance knob; it is part of the session-pool key.
	Workers int `json:"workers,omitempty"`

	Operator OperatorRef `json:"operator"`

	// RHS holds NRHS right-hand sides of N values each, back to back;
	// omitted means all ones.
	RHS  []float64 `json:"rhs,omitempty"`
	NRHS int       `json:"nrhs,omitempty"`

	// ReturnSolution includes the solution vector(s) in the response.
	ReturnSolution bool `json:"return_solution,omitempty"`
	// Telemetry includes this request's per-phase SolveReport in the
	// response and records it in the aggregate expvar sink.
	Telemetry bool `json:"telemetry,omitempty"`

	// Failover is the pooled session's failover chain
	// (core.SessionOptions); it is part of the pool key, so requests
	// with different chains use different sessions.
	Failover []string `json:"failover,omitempty"`

	// FaultSpec injects a deterministic fault schedule
	// (fault.ParseSpec syntax; also settable via the X-Lisi-Fault-Spec
	// header) into a dedicated, unpooled session for this request.
	// Honored only when the server enables fault injection AND the
	// binary was built with the faultinject tag; chaos testing only.
	FaultSpec string `json:"fault_spec,omitempty"`

	poolKey poolKey // memoized by key(); a decoded request starts unkeyed
	keyed   bool
}

// SolveResponse is the body of a completed solve (HTTP 200). A solver
// that terminated with a typed non-converged FailReason is still a 200:
// the solve ran to a classified end; only transport, admission and
// aborted solves are Error statuses.
type SolveResponse struct {
	Tenant          string `json:"tenant"`
	Backend         string `json:"backend"` // backend that produced the result (≠ request after failover)
	OperatorID      string `json:"operator_id"`
	OperatorVersion int    `json:"operator_version"`

	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	Converged  bool    `json:"converged"`
	FailReason string  `json:"fail_reason"`
	Attempts   int     `json:"attempts"`

	// SessionReused reports the request hit an already-built pooled
	// session: no operator staging, no refactorization — the
	// zero-allocation steady-state path.
	SessionReused bool `json:"session_reused"`
	// Batched is always false: every request is its own solve round, so
	// the iteration and residual fields always describe this request's
	// run. The field stays only because the benchmark module still reads
	// it; omitempty keeps it off the wire.
	Batched    bool    `json:"batched,omitempty"`
	NRHS       int     `json:"nrhs"`
	SolveWallS float64 `json:"solve_wall_s"`

	Solution []float64              `json:"solution,omitempty"`
	Report   *telemetry.SolveReport `json:"report,omitempty"`
}
