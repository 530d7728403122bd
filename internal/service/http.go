package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// API is the HTTP surface:
//
//	POST /v1/cell   one CellRequest  -> CellResponse
//	POST /v1/cells  []CellRequest    -> []BatchItem (concurrent)
//	POST /v1/lease  LeaseRequest     -> LeaseResponse
//	GET  /v1/stats  -> Stats (store tiers, dedup, counters)
//
// plus the standard introspection endpoints from internal/obs —
// /healthz, /runinfo, /metrics (Prometheus, including the store's tier
// counters), /progress (simulating cells) — mounted at the root.

// maxBodyBytes bounds request bodies, and the response bodies Client
// reads; a cell request is a few hundred bytes, a cell response about
// 2 KB, so a batch of more than about 4,000 cells must be split.
const maxBodyBytes = 8 << 20

// Handler returns the service mux.
func (s *Service) Handler(info obs.RunInfo) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cell", func(w http.ResponseWriter, r *http.Request) {
		var req CellRequest
		if !s.decode(w, r, &req) {
			return
		}
		resp, err := s.Cell(r.Context(), req)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		s.writeJSON(w, resp)
	})
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		var reqs []CellRequest
		if !s.decode(w, r, &reqs) {
			return
		}
		s.writeJSON(w, s.Cells(r.Context(), reqs))
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !s.decode(w, r, &req) {
			return
		}
		resp, err := s.Lease(r.Context(), req)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		s.writeJSON(w, resp)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, s.Stats())
	})
	// Lease responses name this worker by the same run ID /runinfo
	// advertises.
	s.workerID = info.RunID
	// The obs endpoints serve everything else; its Extra hook merges the
	// store and service counters into /metrics.
	obsSrv := &obs.Server{Info: info, Tracker: s.tracker, Extra: s.MetricsSnapshot, Log: s.log}
	mux.Handle("/", obsSrv.Handler())
	return mux
}

// decode reads one JSON body, rejecting trailing garbage and oversize
// payloads; a false return means the 400 is already written.
func (s *Service) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	if dec.More() {
		s.httpError(w, http.StatusBadRequest, "trailing data after request body")
		return false
	}
	return true
}

// writeError maps service errors to status codes: RequestErrors are the
// client's fault (400); a dead request context is 499 (client closed,
// nginx's convention); everything else — simulation failures,
// durability failures — is a 500.
func (s *Service) writeError(w http.ResponseWriter, r *http.Request, err error) {
	var re *RequestError
	switch {
	case errors.As(err, &re):
		s.httpError(w, http.StatusBadRequest, re.Error())
	case r.Context().Err() != nil:
		s.httpError(w, 499, err.Error())
	default:
		s.log.Error("cell request failed", "err", err)
		s.httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// errorBody is every non-200 response's JSON shape.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Service) httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(errorBody{Error: msg}); err != nil {
		s.log.Warn("service: error response encode failed", "err", err)
	}
}

func (s *Service) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Warn("service: response encode failed", "err", err)
	}
}
