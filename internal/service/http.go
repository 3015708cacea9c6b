// HTTP surface of the simulation service:
//
//	POST /jobs            submit a JobRequest; blocks until done unless
//	                      "nowait" — returns a JobView either way
//	POST /batch           submit a BatchRequest: many specs sharing
//	                      defaults, admitted atomically (all-or-429) —
//	                      returns per-element JobViews in request order
//	GET  /jobs/{id}       job status (+ result document when done);
//	                      "?wait=1" blocks until the job finishes
//	GET  /jobs/{id}/snapshot  live obs snapshot of a running job
//	GET  /jobs/{id}/series    cycle-sampled v=1 series rows as JSONL,
//	                      chunk-flushed while the job runs —
//	                      byte-identical to a local -serve series file;
//	                      "?nofollow=1" returns the rows so far and closes
//	GET  /jobs/{id}/      the self-contained live dashboard, pointed at
//	                      this job's snapshot/series
//	GET  /stats           server counters (queue, cache, store)
//	GET  /healthz         liveness probe
//
// Handlers snapshot job state under the server mutex and never touch a
// running simulation's mutable state (the snapshot and series endpoints
// serve the recorder's cached marshaled bytes/rows, the same
// immutable-state rule as the PR 6 -serve handlers).
package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"dsmdist/internal/obs"
)

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// maxRequestBytes bounds a POST /jobs or /batch body. The largest body the
// repository's own clients send, a full-scale dsmbench -remote figure
// sweep, is under 30 KB; the bound leaves ample room for big programs
// while keeping one request from exhausting the daemon's memory.
const maxRequestBytes = 8 << 20

// decodeBody decodes a size-bounded JSON request body into v, answering
// 413 for an oversized body and 400 for malformed JSON. It reports whether
// decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, err)
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	j, attached, err := s.Submit(&req)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !req.NoWait {
		select {
		case <-s.Done(j):
		case <-r.Context().Done():
			// Client went away; the job keeps running (its result is
			// cached for the retry).
			writeError(w, http.StatusRequestTimeout, r.Context().Err())
			return
		}
	}
	writeJSON(w, http.StatusOK, s.View(j, attached))
}

// handleBatch is POST /batch: atomic all-or-429 admission of a whole
// batch, per-element JobViews in request order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	jobs, attached, err := s.SubmitBatch(&req)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !req.NoWait {
		for _, j := range jobs {
			select {
			case <-s.Done(j):
			case <-r.Context().Done():
				// Client went away; the jobs keep running (their results
				// are cached for the retry).
				writeError(w, http.StatusRequestTimeout, r.Context().Err())
				return
			}
		}
	}
	view := BatchView{V: 1, Jobs: make([]JobView, len(jobs))}
	for i, j := range jobs {
		view.Jobs[i] = s.View(j, attached[i])
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	j, ok := s.Job(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	switch sub {
	case "":
		if strings.HasSuffix(r.URL.Path, "/") {
			// GET /jobs/{id}/ — the self-contained dashboard. Its relative
			// snapshot/series fetches resolve under this job's path.
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			w.Write([]byte(obs.DashboardHTML()))
			return
		}
		if r.URL.Query().Get("wait") != "" {
			select {
			case <-s.Done(j):
			case <-r.Context().Done():
				writeError(w, http.StatusRequestTimeout, r.Context().Err())
				return
			}
		}
		writeJSON(w, http.StatusOK, s.View(j, false))
	case "snapshot":
		s.mu.Lock()
		rec, snap := j.rec, j.snap
		s.mu.Unlock()
		var buf []byte
		if rec != nil {
			buf = rec.SnapshotJSON()
		} else if snap != nil {
			buf = snap // finished job: the retained final snapshot
		}
		if buf == nil {
			writeError(w, http.StatusServiceUnavailable,
				errors.New("service: no live snapshot (job not running, or no sample yet)"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
	case "series":
		s.streamSeries(w, r, j)
	default:
		http.NotFound(w, r)
	}
}

// streamSeries is GET /jobs/{id}/series: the job's cycle-sampled series
// rows as JSONL, chunk-flushed as the run emits them. The bytes are
// byte-identical to what a local `dsmrun -series`/-serve run of the same
// spec writes: same recorder, same simulated-clock watermark rule, same
// row framing — the stream is just the series file delivered
// incrementally. With ?nofollow=1 the rows so far are returned and the
// response closes (the dashboard's poll mode). A submission served from
// the result cache never ran here and so has no series.
func (s *Server) streamSeries(w http.ResponseWriter, r *http.Request, j *Job) {
	// Wait for the job's recorder to exist: a queued job has none yet,
	// and connecting before the run starts is the common case when the
	// submission was nowait.
	var rec *obs.Recorder
	var retained []json.RawMessage
	for {
		s.mu.Lock()
		rec, retained = j.rec, j.series
		state := j.State
		s.mu.Unlock()
		if rec != nil || retained != nil {
			break
		}
		if state == StateDone || state == StateFailed {
			writeError(w, http.StatusGone,
				errors.New("service: job has no series (served from cache, or its series has been pruned)"))
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	writeRows := func(rows []json.RawMessage) {
		for _, row := range rows {
			w.Write(row)
			w.Write([]byte("\n"))
		}
	}
	if rec == nil {
		// Finished job with retained rows: emit them all and close.
		writeRows(retained)
		return
	}
	flusher, _ := w.(http.Flusher)
	nofollow := r.URL.Query().Get("nofollow") != ""
	n := 0
	for {
		rows, done := rec.SeriesRowsFrom(n)
		writeRows(rows)
		n += len(rows)
		if len(rows) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done || nofollow {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.Done(j):
			// Drain whatever landed after the last poll — the final row
			// is published before the run returns.
			rows, _ := rec.SeriesRowsFrom(n)
			writeRows(rows)
			return
		case <-time.After(25 * time.Millisecond):
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ServerStats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("ok\n"))
}
