package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pictor/internal/core"
	"pictor/internal/exp"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec string) JobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit decode: %v (%s)", err, body)
	}
	return st
}

type sseFrame struct {
	Type string
	Data json.RawMessage
}

// readSSE consumes the job's event stream, invoking onFrame per frame,
// until the terminal "done" frame (returned) or the stream ends.
func readSSE(t *testing.T, ts *httptest.Server, jobID string, onFrame func(sseFrame)) doneEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + jobID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = json.RawMessage(strings.TrimPrefix(line, "data: "))
		case line == "" && cur.Type != "":
			if onFrame != nil {
				onFrame(cur)
			}
			if cur.Type == "done" {
				var d doneEvent
				if err := json.Unmarshal(cur.Data, &d); err != nil {
					t.Fatalf("done frame: %v (%s)", err, cur.Data)
				}
				return d
			}
			cur = sseFrame{}
		}
	}
	t.Fatalf("event stream ended without a done frame (scan err %v)", sc.Err())
	return doneEvent{}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s decode: %v", path, err)
	}
}

// TestServerGridEndToEnd is the tentpole's contract in one flow: submit
// a small real grid over HTTP, follow SSE to completion, export JSON
// and CSV, then re-submit the identical spec and assert the canonical
// result cache answers every trial without re-execution, byte-identical
// to the first run.
func TestServerGridEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (small) simulation grid")
	}
	_, ts := newTestServer(t, Config{Parallel: 2})
	const spec = `{"kind":"grid","profiles":"STK","seconds":2,"warmup":1,"maxInstances":1,"reps":1}`

	// A worker may pick the job up before the submit response is
	// written, so a fresh job reads queued or already running.
	st := submit(t, ts, spec)
	if (st.State != StateQueued && st.State != StateRunning) || st.Total == 0 {
		t.Fatalf("fresh job status = %+v", st)
	}
	progress := 0
	done := readSSE(t, ts, st.ID, func(f sseFrame) {
		if f.Type == "progress" {
			progress++
		}
	})
	if done.State != StateDone || done.Done != st.Total || done.Warnings != 0 {
		t.Fatalf("done frame = %+v (total %d)", done, st.Total)
	}
	if progress != st.Total {
		t.Fatalf("saw %d progress frames, want %d", progress, st.Total)
	}
	if done.Executed != st.Total || done.Cached != 0 {
		t.Fatalf("first run must execute everything: %+v", done)
	}

	var ex1 exportJSON
	getJSON(t, ts, "/jobs/"+st.ID+"/results", &ex1)
	if len(ex1.Trials) != st.Total {
		t.Fatalf("export has %d trials, want %d", len(ex1.Trials), st.Total)
	}
	for _, rec := range ex1.Trials {
		if len(rec.Reps) != 1 || rec.Cached {
			t.Fatalf("first-run record %q: cached=%t reps=%d", rec.Trial, rec.Cached, len(rec.Reps))
		}
	}

	csvResp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/results.csv")
	if err != nil {
		t.Fatalf("csv: %v", err)
	}
	defer csvResp.Body.Close()
	rows, err := csv.NewReader(csvResp.Body).ReadAll()
	if err != nil {
		t.Fatalf("csv parse: %v", err)
	}
	if len(rows) < 2 || len(rows[0]) != len(csvHeader) {
		t.Fatalf("csv shape: %d rows, %d cols", len(rows), len(rows[0]))
	}

	// Identical spec again: the cache must answer everything, fast.
	start := time.Now()
	st2 := submit(t, ts, spec)
	done2 := readSSE(t, ts, st2.ID, nil)
	if done2.State != StateDone || done2.Cached != st.Total || done2.Executed != 0 {
		t.Fatalf("re-run must be fully cached: %+v", done2)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cached re-run took %s", elapsed)
	}
	var ex2 exportJSON
	getJSON(t, ts, "/jobs/"+st2.ID+"/results", &ex2)
	for i, rec := range ex2.Trials {
		if !rec.Cached {
			t.Fatalf("re-run record %q not served from cache", rec.Trial)
		}
		a, _ := json.Marshal(ex1.Trials[i].Reps)
		b, _ := json.Marshal(rec.Reps)
		if !bytes.Equal(a, b) {
			t.Fatalf("cached results for %q differ from the executed run", rec.Trial)
		}
	}
}

// stubResult fabricates one zero-ish repetition per trial.
func stubResult(trials []exp.Trial) [][]core.TrialResult {
	out := make([][]core.TrialResult, len(trials))
	for i := range out {
		out[i] = []core.TrialResult{{Seed: 1}}
	}
	return out
}

// TestServerCancelStopsBetweenUnits pins the cancellation contract: a
// cancel issued mid-job stops the sweep at the next trial-unit
// boundary — completed units stay, pending ones never run.
func TestServerCancelStopsBetweenUnits(t *testing.T) {
	var calls int32
	runner := func(ctx context.Context, trials []exp.Trial, _ core.ExperimentConfig) ([][]core.TrialResult, []*exp.PanicError) {
		if atomic.AddInt32(&calls, 1) > 1 {
			// Trials after the first block until the job is cancelled,
			// so the test fully controls where the cancel lands.
			<-ctx.Done()
		}
		return stubResult(trials), nil
	}
	_, ts := newTestServer(t, Config{Runner: runner})

	st := submit(t, ts, `{"kind":"fleet","machines":2,"requests":4}`)
	if st.Total != 4 {
		t.Fatalf("fleet spec must lower to 4 policy trials, got %d", st.Total)
	}
	cancelled := false
	done := readSSE(t, ts, st.ID, func(f sseFrame) {
		if f.Type == "progress" && !cancelled {
			cancelled = true
			resp, err := http.Post(ts.URL+"/jobs/"+st.ID+"/cancel", "application/json", nil)
			if err != nil {
				t.Errorf("cancel: %v", err)
				return
			}
			resp.Body.Close()
		}
	})
	if done.State != StateCancelled {
		t.Fatalf("state = %q, want cancelled", done.State)
	}
	if done.Done == 0 || done.Done >= st.Total {
		t.Fatalf("cancelled between units: done = %d of %d", done.Done, st.Total)
	}
	var status JobStatus
	getJSON(t, ts, "/jobs/"+st.ID, &status)
	if status.State != StateCancelled || status.Done != done.Done {
		t.Fatalf("status after cancel = %+v", status)
	}
}

// TestServerPanicBecomesJobWarning pins panic isolation end to end: a
// trial that panics in execution surfaces as a job-level warning
// carrying the unit's Trial.Key(), the job still completes, the
// poisoned result is not cached, and the server keeps serving.
func TestServerPanicBecomesJobWarning(t *testing.T) {
	runner := func(_ context.Context, trials []exp.Trial, cfg core.ExperimentConfig) ([][]core.TrialResult, []*exp.PanicError) {
		// Route through the real checked runner so the PanicError (and
		// its TrialKey) is produced by the production recovery path.
		return exp.RunChecked(trials, func(exp.Trial, exp.Unit) core.TrialResult {
			panic("poisoned unit")
		}, exp.RunOptions{Parallel: 1, Reps: cfg.Reps, BaseSeed: cfg.Seed})
	}
	_, ts := newTestServer(t, Config{Runner: runner})

	st := submit(t, ts, `{"kind":"churn","machines":2,"epochs":3}`)
	warnings := 0
	done := readSSE(t, ts, st.ID, func(f sseFrame) {
		if f.Type == "warning" {
			warnings++
			var wv warningEvent
			if err := json.Unmarshal(f.Data, &wv); err != nil {
				t.Errorf("warning frame: %v", err)
			} else if wv.Key == "" || !strings.Contains(wv.Message, wv.Key) {
				t.Errorf("warning must carry the unit's Trial.Key(): %+v", wv)
			}
		}
	})
	if done.State != StateDone || done.Done != st.Total {
		t.Fatalf("poisoned job must still complete: %+v", done)
	}
	if warnings != st.Total || done.Warnings != st.Total {
		t.Fatalf("want %d warnings, saw %d (done frame says %d)", st.Total, warnings, done.Warnings)
	}
	var status JobStatus
	getJSON(t, ts, "/jobs/"+st.ID, &status)
	if len(status.Warnings) != st.Total {
		t.Fatalf("status warnings = %d, want %d", len(status.Warnings), st.Total)
	}
	for i, msg := range status.Warnings {
		if !strings.Contains(msg, "fleet:") {
			t.Fatalf("warning %d does not name a trial key: %q", i, msg)
		}
	}

	// Poisoned results must not be cached: the identical spec executes
	// again (and the server is still alive to take it).
	st2 := submit(t, ts, `{"kind":"churn","machines":2,"epochs":3}`)
	done2 := readSSE(t, ts, st2.ID, nil)
	if done2.Cached != 0 || done2.Executed != st.Total {
		t.Fatalf("poisoned trials must re-execute on resubmission: %+v", done2)
	}
}

// TestServerStreamedChurnSpillsEpochs pins the server half of the
// streaming result API: a spec with "stream": true runs rollup-only
// (no per-epoch structs in the JSON export or the result cache), yet
// /results.csv still carries every epoch row — spilled by the sink as
// the churn loop closed them — and /healthz reports the queue's occupancy
// plus the in-flight sink memory mode.
func TestServerStreamedChurnSpillsEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (small) churn simulation")
	}
	_, ts := newTestServer(t, Config{Parallel: 2})

	var health struct {
		Status string `json:"status"`
		Queue  struct {
			Depth    int `json:"depth"`
			Capacity int `json:"capacity"`
		} `json:"queue"`
		Sink string `json:"sink"`
	}
	getJSON(t, ts, "/healthz", &health)
	if health.Status != "ok" || health.Sink != "in-memory" {
		t.Fatalf("idle health = %+v, want ok/in-memory", health)
	}
	if health.Queue.Depth != 0 || health.Queue.Capacity < 1 {
		t.Fatalf("idle queue = %+v, want empty with positive capacity", health.Queue)
	}

	const spec = `{"kind":"churn","machines":2,"epochs":3,"seconds":2,"warmup":1,"reps":1,"stream":true}`
	st := submit(t, ts, spec)
	done := readSSE(t, ts, st.ID, nil)
	if done.State != StateDone || done.Warnings != 0 {
		t.Fatalf("done frame = %+v", done)
	}

	// JSON export: rollup results only — the streaming contract is that
	// per-epoch detail never lives in the retained result.
	var ex exportJSON
	getJSON(t, ts, "/jobs/"+st.ID+"/results", &ex)
	if len(ex.Trials) != st.Total {
		t.Fatalf("export has %d trials, want %d", len(ex.Trials), st.Total)
	}
	for _, rec := range ex.Trials {
		for _, rep := range rec.Reps {
			if rep.Churn == nil {
				t.Fatalf("trial %q rep %d: no churn result", rec.Trial, rep.Rep)
			}
			if len(rep.Churn.Epochs) != 0 {
				t.Fatalf("trial %q retained %d epoch rows despite streaming", rec.Trial, len(rep.Churn.Epochs))
			}
			if rep.Churn.Arrivals == 0 || rep.Churn.OfferedSessionEpochs == 0 {
				t.Fatalf("trial %q rollup looks empty: %+v", rec.Trial, rep.Churn)
			}
		}
	}

	// CSV export: the spilled epoch rows are stitched back in — one per
	// (trial, rep, epoch).
	epochRows := countCSVEpochRows(t, ts, st.ID)
	if want := st.Total * 1 * 3; epochRows != want {
		t.Fatalf("csv has %d epoch rows, want %d", epochRows, want)
	}

	getJSON(t, ts, "/healthz", &health)
	if health.Sink != "in-memory" {
		t.Fatalf("sink mode after completion = %q, want in-memory", health.Sink)
	}

	// Resubmission answers from the cache: the rollup is served without
	// re-execution, and — since nothing executed — without epoch rows.
	st2 := submit(t, ts, spec)
	done2 := readSSE(t, ts, st2.ID, nil)
	if done2.Cached != st.Total || done2.Executed != 0 {
		t.Fatalf("streamed re-run must be fully cached: %+v", done2)
	}
	if rows := countCSVEpochRows(t, ts, st2.ID); rows != 0 {
		t.Fatalf("cached streamed job has %d epoch rows, want 0", rows)
	}
}

// countCSVEpochRows fetches a job's CSV export and counts scope=="epoch"
// rows.
func countCSVEpochRows(t *testing.T, ts *httptest.Server, jobID string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + jobID + "/results.csv")
	if err != nil {
		t.Fatalf("csv: %v", err)
	}
	defer resp.Body.Close()
	rows, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil {
		t.Fatalf("csv parse: %v", err)
	}
	scopeCol := -1
	for i, col := range rows[0] {
		if col == "scope" {
			scopeCol = i
		}
	}
	if scopeCol < 0 {
		t.Fatalf("csv header lacks scope column: %v", rows[0])
	}
	n := 0
	for _, row := range rows[1:] {
		if row[scopeCol] == "epoch" {
			n++
		}
	}
	return n
}

// TestServerRejectsBadSpecs: validation errors come back as 400 with
// the normalizer's message; unknown JSON fields are rejected.
func TestServerRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Runner: func(_ context.Context, trials []exp.Trial, _ core.ExperimentConfig) ([][]core.TrialResult, []*exp.PanicError) {
		return stubResult(trials), nil
	}})
	for _, bad := range []string{
		`{"kind":"figs"}`,
		`{"kind":"faults","mttr":3}`,
		`{"kind":"fleet","epochs":5}`,
		`{"kind":"fleet","machenes":3}`, // unknown field
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %s: status %d (%s), want 400", bad, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/nope")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestStoreCanonicalKeySharing: two as-executed-identical trial
// spellings share one cache line — the property that makes the store a
// cache instead of a lookup table of spellings.
func TestStoreCanonicalKeySharing(t *testing.T) {
	cfg := core.ExperimentConfig{Seed: 1, Reps: 1}
	a := exp.FleetTrial(exp.FleetShape{Machines: 3, Policy: "binpack", Requests: 6, MachineCores: 0})
	b := exp.FleetTrial(exp.FleetShape{Machines: 3, Policy: "binpack", Requests: 6, MachineCores: 8})
	a.Warmup, a.Measure, b.Warmup, b.Measure = 1, 5, 1, 5
	if storeKey(a, cfg) != storeKey(b, cfg) {
		t.Fatalf("as-executed-identical spellings must share a store key:\n %q\n %q",
			storeKey(a, cfg), storeKey(b, cfg))
	}
	reps2 := cfg
	reps2.Reps = 2
	if storeKey(a, cfg) == storeKey(a, reps2) {
		t.Fatal("rep count must be part of the cache identity")
	}
	st := newStore(0)
	st.put(storeKey(a, cfg), []core.TrialResult{{Seed: 7}})
	got, ok := st.get(storeKey(b, cfg))
	if !ok || got[0].Seed != 7 {
		t.Fatalf("spelling b must hit spelling a's entry: ok=%t got=%+v", ok, got)
	}
	if _, ok := st.get("missing"); ok {
		t.Fatal("unexpected hit")
	}
	if entries, hits, misses, _ := st.stats(); entries != 1 || hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", entries, hits, misses)
	}
}

// TestQueueFullReturns503: submissions beyond the queue depth are
// rejected with 503, not silently dropped or unboundedly buffered.
func TestQueueFullReturns503(t *testing.T) {
	block := make(chan struct{})
	runner := func(ctx context.Context, trials []exp.Trial, _ core.ExperimentConfig) ([][]core.TrialResult, []*exp.PanicError) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return stubResult(trials), nil
	}
	_, ts := newTestServer(t, Config{Runner: runner, QueueDepth: 1})
	defer close(block)

	// First job occupies the single worker, second fills the queue (the
	// worker may or may not have picked the first up yet, so accept one
	// extra in-flight submission before demanding a 503).
	got503 := false
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"kind":"fleet","machines":2,"requests":%d}`, i+2)))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			got503 = true
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
	}
	if !got503 {
		t.Fatal("overfilling the queue never returned 503")
	}
}
