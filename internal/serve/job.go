package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pictor/internal/core"
	"pictor/internal/exp"
)

// JobState is a job's lifecycle position. Transitions are
// queued → running → {done, cancelled}; a queued job cancelled before a
// worker picks it up goes terminal directly.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateCancelled JobState = "cancelled"
)

func (s JobState) terminal() bool { return s == StateDone || s == StateCancelled }

// TrialRecord is one trial's outcome inside a job: its identity (human
// ID and Key(), which with the job's reps and seed is also its result
// cache key), whether the result cache answered it, and the recorded
// repetitions.
type TrialRecord struct {
	Trial  string `json:"trial"`
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	// Reps holds the per-repetition results ([rep] order). A repetition
	// poisoned by a panic is the zero value — the matching warning on
	// the job names it.
	Reps []core.TrialResult `json:"reps"`
}

// Event is one SSE frame: the event name plus its JSON payload.
type Event struct {
	Type string
	Data any
}

// progressEvent reports one completed trial unit.
type progressEvent struct {
	State     JobState `json:"state"`
	Done      int      `json:"done"`
	Total     int      `json:"total"`
	Cached    int      `json:"cached"`
	Trial     string   `json:"trial"`
	Key       string   `json:"key"`
	FromCache bool     `json:"fromCache"`
}

// warningEvent reports a poisoned unit: the panic was contained to its
// (trial, rep) and the job keeps running.
type warningEvent struct {
	Trial   string `json:"trial"`
	Key     string `json:"key"`
	Rep     int    `json:"rep"`
	Message string `json:"message"`
}

// doneEvent is the terminal frame of every job's stream.
type doneEvent struct {
	State    JobState `json:"state"`
	Done     int      `json:"done"`
	Total    int      `json:"total"`
	Cached   int      `json:"cached"`
	Executed int      `json:"executed"`
	Warnings int      `json:"warnings"`
}

// JobStatus is a job's JSON snapshot (list/status endpoints and the
// export header).
type JobStatus struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	State    JobState   `json:"state"`
	Total    int        `json:"total"`
	Done     int        `json:"done"`
	Cached   int        `json:"cached"`
	Executed int        `json:"executed"`
	Warnings []string   `json:"warnings,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// Job is one submitted experiment: a normalized spec lowered onto a
// trial batch, executed by a queue worker unit-by-unit. All mutable
// state sits behind mu; the cond broadcasts on every appended event so
// SSE readers (one goroutine per subscriber) replay history and then
// follow live.
type Job struct {
	ID     string
	Spec   core.ExperimentSpec
	Trials []exp.Trial

	// ctx is cancelled by Cancel (and at finish, to release the
	// AfterFunc); the worker checks it between trial units.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	state    JobState
	done     int
	cached   int
	executed int
	warnings []string
	records  []TrialRecord
	spills   []*churnSpill
	events   []Event
	created  time.Time
	started  time.Time
	finished time.Time
}

func newJob(id string, spec core.ExperimentSpec, trials []exp.Trial) *Job {
	j := &Job{
		ID:      id,
		Spec:    spec,
		Trials:  trials,
		state:   StateQueued,
		created: time.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	j.ctx, j.cancel = context.WithCancel(context.Background())
	return j
}

// start marks the job running (called by the worker that picked it up).
// It reports false when the job went terminal while queued — a
// cancelled-before-start job must not run.
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// complete records one finished trial unit and emits its progress frame.
func (j *Job) complete(rec TrialRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = append(j.records, rec)
	j.done++
	if rec.Cached {
		j.cached++
	} else {
		j.executed++
	}
	j.events = append(j.events, Event{Type: "progress", Data: progressEvent{
		State: j.state, Done: j.done, Total: len(j.Trials), Cached: j.cached,
		Trial: rec.Trial, Key: rec.Key, FromCache: rec.Cached,
	}})
	j.cond.Broadcast()
}

// warn records a poisoned unit as a job-level warning.
func (j *Job) warn(trialID string, pe *exp.PanicError) {
	j.mu.Lock()
	defer j.mu.Unlock()
	msg := warningMessage(trialID, pe)
	j.warnings = append(j.warnings, msg)
	j.events = append(j.events, Event{Type: "warning", Data: warningEvent{
		Trial: trialID, Key: pe.TrialKey, Rep: pe.Rep, Message: msg,
	}})
	j.cond.Broadcast()
}

// warningMessage names a poisoned unit with its full identity — trial
// ID, repetition, panic value and the trial's Key() — so the author of
// a large sweep can find the one bad spec without re-running anything.
func warningMessage(trialID string, pe *exp.PanicError) string {
	return fmt.Sprintf("trial %q rep %d panicked: %v (key %s)", trialID, pe.Rep, pe.Value, pe.TrialKey)
}

// finish moves the job to a terminal state and appends the done frame
// in the same critical section, so a reader observing a terminal state
// is guaranteed the done event is already in the log (the SSE loop's
// exit condition). Nothing may emit after finish.
func (j *Job) finish(state JobState) {
	j.mu.Lock()
	j.state = state
	j.finished = time.Now()
	j.events = append(j.events, Event{Type: "done", Data: doneEvent{
		State: state, Done: j.done, Total: len(j.Trials),
		Cached: j.cached, Executed: j.executed, Warnings: len(j.warnings),
	}})
	j.cond.Broadcast()
	j.mu.Unlock()
	j.cancel()
}

// Cancel requests cancellation: a still-queued job goes terminal
// immediately (the worker will skip it), a running one stops between
// trial units, and a terminal one is untouched.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCancelled
		j.finished = time.Now()
		j.events = append(j.events, Event{Type: "done", Data: doneEvent{
			State: StateCancelled, Total: len(j.Trials),
		}})
		j.cond.Broadcast()
		j.mu.Unlock()
		j.cancel()
		return
	}
	j.mu.Unlock()
	j.cancel()
}

// wake kicks every waiting SSE reader (used by context.AfterFunc when a
// subscriber disconnects, so its reader goroutine re-checks its ctx).
func (j *Job) wake() {
	j.mu.Lock()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Status snapshots the job for JSON.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.ID,
		Kind:     j.Spec.Kind,
		State:    j.state,
		Total:    len(j.Trials),
		Done:     j.done,
		Cached:   j.cached,
		Executed: j.executed,
		Warnings: append([]string(nil), j.warnings...),
		Created:  j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// addSpill registers a streaming sink attached to one of the job's
// executing trials, in attach (= trial) order.
func (j *Job) addSpill(cs *churnSpill) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.spills = append(j.spills, cs)
}

// snapshotSpills copies the attached streaming sinks so far.
func (j *Job) snapshotSpills() []*churnSpill {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]*churnSpill(nil), j.spills...)
}

// snapshotRecords copies the completed trial records so far.
func (j *Job) snapshotRecords() []TrialRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]TrialRecord(nil), j.records...)
}

// eventsSince blocks until the log grows past idx, the job goes
// terminal, or the subscriber's ctx ends, then returns the new events
// and whether the job is terminal. With finish appending the done frame
// atomically with the state change, (terminal && all events returned)
// means the stream is complete.
func (j *Job) eventsSince(ctx context.Context, idx int) ([]Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for idx >= len(j.events) && !j.state.terminal() && ctx.Err() == nil {
		j.cond.Wait()
	}
	return append([]Event(nil), j.events[idx:]...), j.state.terminal()
}
