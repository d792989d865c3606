package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"ituaval/internal/scenario"
	"ituaval/internal/study"
)

// routes wires the API surface:
//
//	GET    /v1/healthz          liveness
//	GET    /v1/studies          registered experiments with descriptions
//	POST   /v1/jobs             submit a scenario (JSON)
//	GET    /v1/jobs             list known jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/stream progress stream (NDJSON)
//	GET    /v1/jobs/{id}/result finished result document (cache bytes)
//	DELETE /v1/jobs/{id}        cancel a queued/running job
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/studies", s.handleStudies)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// studyInfo is one row of GET /v1/studies — the same registry listing
// `figures -list` prints.
type studyInfo struct {
	ID          string `json:"id"`
	Description string `json:"description"`
}

func (s *Server) handleStudies(w http.ResponseWriter, _ *http.Request) {
	infos := make([]studyInfo, 0)
	for _, id := range study.IDs() {
		infos = append(infos, studyInfo{ID: id, Description: study.Describe(id)})
	}
	writeJSON(w, http.StatusOK, infos)
}

// jobStatus is the status document of one job.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	Error     string `json:"error,omitempty"`
	RepsDone  int64  `json:"repsDone"`
	TotalReps int64  `json:"totalReps"`
	Points    int    `json:"points"`
}

func (s *Server) statusOf(j *job) jobStatus {
	state, errMsg := j.snapshot()
	return jobStatus{
		ID:        j.id,
		State:     state,
		Error:     errMsg,
		RepsDone:  j.repsDone.Load(),
		TotalReps: j.totalReps,
		Points:    len(j.compiled.Points),
	}
}

// handleSubmit admits a scenario. A body over scenario.MaxBytes is
// answered 413; any other failure to read it, 400. A spec that cannot be
// persisted is the server's fault (500), not the client's.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, scenario.MaxBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("reading request body: %w", err))
		return
	}
	j, id, cached, err := s.admit(body)
	switch {
	case errors.Is(err, errQueueFull) || errors.Is(err, errShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, errPersist):
		writeError(w, http.StatusInternalServerError, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if cached {
		writeJSON(w, http.StatusOK, jobStatus{ID: id, State: stateDone, Cached: true})
		return
	}
	writeJSON(w, http.StatusAccepted, s.statusOf(j))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]jobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, s.statusOf(j))
	}
	// Deterministic listing order (ids are content hashes).
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].ID < out[k-1].ID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j := s.lookup(id); j != nil {
		writeJSON(w, http.StatusOK, s.statusOf(j))
		return
	}
	if s.cacheHas(id) {
		writeJSON(w, http.StatusOK, jobStatus{ID: id, State: stateDone, Cached: true})
		return
	}
	writeError(w, http.StatusNotFound, errors.New("unknown job "+id))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if doc := s.cacheGet(id); doc != nil {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(doc)
		return
	}
	if j := s.lookup(id); j != nil {
		writeError(w, http.StatusConflict, errors.New("job "+id+" has not finished"))
		return
	}
	writeError(w, http.StatusNotFound, errors.New("unknown job "+id))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(id)
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job "+id))
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

// handleStream serves the job's full event log as NDJSON (one event object
// per line) and then follows it live until the job reaches a terminal
// state. Every subscriber sees the identical sequence regardless of when
// it connected, because events replay from the job's append-only log.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(id)
	if j == nil {
		if doc := s.cacheGet(id); doc != nil {
			// A cache-served job streams as a single terminal event — the
			// same final frame a live subscriber would have seen.
			ev, _ := json.Marshal(resultEvent{Type: "result", Job: id, Cached: true, Result: doc})
			writeStreamHeader(w)
			writeStreamEvent(w, ev)
			return
		}
		writeError(w, http.StatusNotFound, errors.New("unknown job "+id))
		return
	}
	writeStreamHeader(w)
	flusher, _ := w.(http.Flusher)
	// cond.Wait cannot watch the request context directly; a cancellation
	// callback wakes the waiters so the loop can notice and drop out.
	stopWake := context.AfterFunc(r.Context(), func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stopWake()
	idx := 0
	for {
		events, done := j.wait(r.Context(), idx)
		for _, ev := range events {
			writeStreamEvent(w, ev)
		}
		idx += len(events)
		if len(events) > 0 && flusher != nil {
			flusher.Flush()
		}
		if r.Context().Err() != nil {
			return
		}
		if done {
			j.mu.Lock()
			remaining := len(j.events) - idx
			j.mu.Unlock()
			if remaining == 0 {
				return
			}
		}
	}
}

func writeStreamHeader(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// writeStreamEvent writes one event line. ev belongs to the job's shared
// replay log, which concurrent subscribers read, so it is never written
// to.
func writeStreamEvent(w http.ResponseWriter, ev json.RawMessage) {
	_, _ = w.Write(ev)
	_, _ = w.Write([]byte("\n"))
}
