package service

import (
	"encoding/json"
	"errors"
	"net/http"
)

// The job API, mounted on the same plane as /metrics and /statusz (see
// obs.ServerConfig.Mount):
//
//	POST   /v1/jobs              submit a JobRequest  → 202 + JobStatus
//	GET    /v1/jobs              list all jobs        → JobsSummary
//	GET    /v1/jobs/{id}         one job's status     → JobStatus
//	GET    /v1/jobs/{id}/events  progress stream, one JSON object per
//	                             line; ?follow=1 keeps the connection
//	                             open until the job reaches a terminal
//	                             state
//	GET    /v1/jobs/{id}/result  the finished result, byte-identical to
//	                             what `simcal -out -history` writes for
//	                             the same calibration
//	DELETE /v1/jobs/{id}         cancel               → JobStatus
//
// Errors are JSON documents {"error": "..."}; quota rejections map to
// 429, malformed requests to 400, unknown jobs to 404, a result
// requested before the job finishes to 409, and a job whose journal
// cannot be created to 500.

// Routes registers the job API on mux. The patterns use method and
// wildcard routing, so mux must be a modern http.ServeMux.
func (s *Server) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		switch {
		case errors.As(err, new(*QuotaError)):
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, errJournal):
			writeError(w, http.StatusInternalServerError, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	st, _ := s.Status(j.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Summary())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: unknown job"))
		return
	}
	st, _ := s.Status(j.ID)
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's event log as JSON lines. Without
// ?follow it returns the events so far and closes; with ?follow=1 it
// keeps streaming until the job reaches a terminal state or the client
// disconnects. Each line is flushed immediately, so a curl can watch a
// calibration converge live.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: unknown job"))
		return
	}
	follow := r.URL.Query().Get("follow") != ""
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		s.mu.Lock()
		pending := make([]Event, len(j.events)-next)
		copy(pending, j.events[next:])
		terminal := j.state.Terminal()
		wake := j.eventCh
		s.mu.Unlock()
		for _, ev := range pending {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		next += len(pending)
		if len(pending) > 0 && flusher != nil {
			flusher.Flush()
		}
		if !follow || terminal {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		}
	}
}

// handleResult serves a finished job's calibration result with full
// history — the same bytes `simcal -out <f> -history` writes, which is
// the contract the CI smoke test's bitwise diff rests on. Results
// survive restarts: a job finished by a previous process has its result
// rebuilt from its journal, to the same bytes. WriteJSON encodes the
// whole document in its pooled buffer before its one Write, so it
// writes straight to the response: a document it refuses (a non-finite
// point value) has written nothing, and the answer can still be 500.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: unknown job"))
		return
	}
	s.mu.Lock()
	state := j.state
	res := j.result
	s.mu.Unlock()
	if state != StateDone {
		writeError(w, http.StatusConflict, errors.New("service: job is "+string(state)))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var refused *json.UnsupportedValueError
	if err := res.WriteJSON(w, true); errors.As(err, &refused) {
		writeError(w, http.StatusInternalServerError, err)
	} // any other error is the connection's, after the one Write
}
