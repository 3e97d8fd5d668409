// Package serve is Pictor's benchmark-as-a-service control plane: a
// long-running HTTP/JSON API over the same experiment vocabulary the
// pictor-bench CLI runs in batch.
//
// Clients POST a core.ExperimentSpec to /jobs; the server normalizes it
// through the exact validation the CLI uses (the two cannot drift),
// lowers it onto the matching comparison trial batch, and runs it on a
// bounded worker pool. Progress streams over Server-Sent Events; jobs
// cancel between trial units; per-unit panics surface as job warnings
// naming the poisoned trial, never a server crash. Executed trials land
// in a result store keyed by Trial.Key(), so re-submitting an identical
// spec — same reps, same seed — answers from recorded results in
// milliseconds: the grid's dedup machinery, turned into a cross-run
// cache.
//
// Endpoints:
//
//	GET  /healthz                  liveness + cache, queue and sink stats
//	POST /jobs                     submit a spec → 202 {"id": ...}
//	GET  /jobs                     all jobs, submission order
//	GET  /jobs/{id}                one job's status
//	POST /jobs/{id}/cancel         request cancellation
//	GET  /jobs/{id}/events         SSE progress stream
//	GET  /jobs/{id}/results        JSON export (partial while running)
//	GET  /jobs/{id}/results.csv    CSV export, one row per measurement
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"pictor/internal/core"
)

// Config sizes the server.
type Config struct {
	// Parallel is each job's experiment-runner worker count (<= 0 uses
	// every core).
	Parallel int
	// Jobs caps concurrently running jobs (default 1: one simulation
	// batch owns the box; queued jobs wait).
	Jobs int
	// QueueDepth bounds the pending queue (default 64); submissions
	// beyond it get 503.
	QueueDepth int
	// StoreEntries bounds the cross-run result cache (default 256
	// cached trials); inserting past the bound evicts the
	// least-recently-used entry.
	StoreEntries int
	// Runner substitutes the trial executor (tests); nil runs
	// core.RunTrialsChecked.
	Runner RunnerFunc
}

// Server wires the store, queue and HTTP mux. Create with New, expose
// Handler() over any listener, and Close() on shutdown.
type Server struct {
	store *store
	queue *queue
	mux   *http.ServeMux
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	if cfg.Jobs < 1 {
		cfg.Jobs = 1
	}
	runner := cfg.Runner
	if runner == nil {
		runner = defaultRunner
	}
	s := &Server{store: newStore(cfg.StoreEntries)}
	s.queue = newQueue(cfg.Jobs, cfg.QueueDepth, s.store, runner, cfg.Parallel)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /jobs/{id}/results", s.handleResultsJSON)
	s.mux.HandleFunc("GET /jobs/{id}/results.csv", s.handleResultsCSV)
	return s
}

// Handler is the server's HTTP entry point.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every job and drains the worker pool. The HTTP handler
// stays safe to call (submissions get 503-style errors) but the typical
// caller shuts the listener down first.
func (s *Server) Close() { s.queue.close() }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	entries, hits, misses, evictions := s.store.stats()
	depth, capacity, streaming := s.queue.health()
	// "sink" is the in-flight result memory mode: "streaming" while any
	// live job spills epoch rows through the streaming sink, "in-memory"
	// otherwise — the O(epochs)-vs-rollup distinction an operator sizing
	// a million-session sweep wants visible before submitting more.
	sink := "in-memory"
	if streaming {
		sink = "streaming"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"cache":  map[string]int{"entries": entries, "hits": hits, "misses": misses, "evictions": evictions},
		"queue":  map[string]int{"depth": depth, "capacity": capacity},
		"sink":   sink,
	})
}

// handleSubmit validates a spec and queues it. Unknown JSON fields are
// rejected — a typoed knob silently ignored would run a different
// experiment than the author believes, the exact failure mode the spec
// vocabulary exists to prevent.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec core.ExperimentSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	norm, err := spec.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	trials := norm.Trials()
	for i := range trials {
		// The server stores measurements, not simulated machines:
		// retained clusters (KeepSystem) exist for in-process estimators
		// the HTTP surface does not expose, and would pin every machine
		// of every cached grid in memory for the server's lifetime.
		trials[i].KeepSystem = false
	}
	job, err := s.queue.submit(norm, trials)
	if err != nil {
		// Both overflow and shutdown are "try again elsewhere/later".
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	j := s.queue.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.queue.statuses())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Status())
}

// handleEvents streams the job's event log as SSE: full replay first
// (late subscribers see every frame), then live follow until the
// terminal "done" frame or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ctx := r.Context()
	// A disconnecting client must wake its reader out of cond.Wait —
	// conds know nothing about contexts, so bridge with AfterFunc.
	defer context.AfterFunc(ctx, j.wake)()
	idx := 0
	for {
		events, terminal := j.eventsSince(ctx, idx)
		for _, e := range events {
			data, err := json.Marshal(e.Data)
			if err != nil {
				data = []byte(`{"error":"marshal failure"}`)
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
		}
		if len(events) > 0 {
			fl.Flush()
			idx += len(events)
		}
		if terminal || ctx.Err() != nil {
			return
		}
	}
}
