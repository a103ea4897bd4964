package service

import (
	"encoding/json"
	"errors"
	"expvar"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// faultSpecHeader lets test clients inject a fault schedule without
// touching the JSON body (chaos builds only; see SolveRequest.FaultSpec).
const faultSpecHeader = "X-Lisi-Fault-Spec"

// Handler returns the service's HTTP surface:
//
//	POST /v1/solve    — solve one system (SolveRequest → SolveResponse)
//	GET  /v1/healthz  — 200 while serving, 503 once draining
//	GET  /v1/stats    — admission/pool/tenant counters (Stats)
//	GET  /v1/backends — registered backend names
//	GET  /debug/vars  — expvar, including the aggregate solve telemetry
//
// Error responses are {"error": Error} with the status from
// Error.HTTPStatus; clients branch on error.code.
func (s *Service) Handler() http.Handler {
	telemetry.Publish("lisi.service", s.agg)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/backends", handleBackends)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	buf := bodyBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxPooledBody {
			bodyBufs.Put(buf)
		}
	}()
	body, err := readBody((*buf)[:0], http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	*buf = body
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, errf(CodeBadRequest, http.StatusRequestEntityTooLarge, false,
				"request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, errf(CodeBadRequest, 400, false, "reading request: %v", err))
		return
	}
	req := &SolveRequest{}
	if err := decodeRequest(body, req); err != nil {
		writeError(w, errf(CodeBadRequest, 400, false, "decoding request: %v", err))
		return
	}
	if h := r.Header.Get(faultSpecHeader); h != "" {
		req.FaultSpec = h
	}
	resp := &SolveResponse{}
	if serr := s.Solve(r.Context(), req, resp); serr != nil {
		writeError(w, serr)
		return
	}
	// No slice of req aliases body, so the reply can take its place.
	*buf = appendResponse(body[:0], resp)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(*buf)))
	w.WriteHeader(200)
	_, _ = w.Write(*buf) // a failed write means the client has gone
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, 503, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, 200, map[string]string{"status": "ok"})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, 200, s.Stats())
}

func handleBackends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, 200, map[string][]string{"backends": core.Names()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, e *Error) {
	writeJSON(w, e.HTTPStatus(), map[string]*Error{"error": e})
}
