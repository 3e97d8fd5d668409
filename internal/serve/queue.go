package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pictor/internal/core"
	"pictor/internal/exp"
)

// ErrQueueFull is returned by submit when the pending queue is at
// capacity — the HTTP layer maps it to 503 so clients back off instead
// of piling unbounded work onto the box.
var ErrQueueFull = errors.New("serve: job queue full")

var errClosed = errors.New("serve: server closed")

// RunnerFunc executes a trial batch and returns per-trial repetitions
// plus any per-unit panics. The default wraps core.RunTrialsChecked;
// tests substitute stubs to pin queue behaviour (cancellation, panic
// warnings) without simulating. The ctx is the job's: the queue already
// checks it between trial units — a runner may additionally honor it
// mid-batch, the production one does not (cancellation is
// between-units by design, matching the runner's unit granularity).
type RunnerFunc func(ctx context.Context, trials []exp.Trial, cfg core.ExperimentConfig) ([][]core.TrialResult, []*exp.PanicError)

func defaultRunner(_ context.Context, trials []exp.Trial, cfg core.ExperimentConfig) ([][]core.TrialResult, []*exp.PanicError) {
	return core.RunTrialsChecked(trials, cfg)
}

// queue owns job registration, the pending channel, and the worker
// pool. Workers is the concurrent-job cap: each worker runs one job at
// a time, trial by trial, so at most Workers simulations batches are in
// flight regardless of how much is queued.
type queue struct {
	store    *store
	runner   RunnerFunc
	parallel int

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	closed bool

	pending chan *Job
	wg      sync.WaitGroup
}

func newQueue(workers, depth int, st *store, runner RunnerFunc, parallel int) *queue {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 64
	}
	q := &queue{
		store:    st,
		runner:   runner,
		parallel: parallel,
		jobs:     map[string]*Job{},
		pending:  make(chan *Job, depth),
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// submit registers a job for the spec and enqueues it.
func (q *queue) submit(spec core.ExperimentSpec, trials []exp.Trial) (*Job, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, errClosed
	}
	q.nextID++
	j := newJob(fmt.Sprintf("j%d", q.nextID), spec, trials)
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	q.mu.Unlock()

	select {
	case q.pending <- j:
		return j, nil
	default:
		q.mu.Lock()
		delete(q.jobs, j.ID)
		q.order = q.order[:len(q.order)-1]
		q.mu.Unlock()
		return nil, ErrQueueFull
	}
}

// job looks a job up by ID (nil when unknown).
func (q *queue) job(id string) *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.jobs[id]
}

// statuses snapshots every job in submission order.
func (q *queue) statuses() []JobStatus {
	q.mu.Lock()
	ids := append([]string(nil), q.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = q.jobs[id]
	}
	q.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

func (q *queue) worker() {
	defer q.wg.Done()
	for j := range q.pending {
		q.run(j)
	}
}

// run executes one job trial-by-trial. Per trial: answer from the
// result store when the trial's store key hits, otherwise execute
// through the runner and record. The job's ctx is checked between
// units — a cancelled job stops there, keeping every already-completed
// unit. A panicking unit becomes a job warning naming the poisoned
// trial (and is not cached), never a worker crash: the server outlives
// any spec.
func (q *queue) run(j *Job) {
	if !j.start() {
		return // cancelled while queued
	}
	cfg := j.Spec.Config()
	cfg.Parallel = q.parallel
	for _, t := range j.Trials {
		if j.ctx.Err() != nil {
			j.finish(StateCancelled)
			return
		}
		rec := TrialRecord{Trial: t.ID, Key: t.Key()}
		sk := storeKey(t, cfg)
		if reps, ok := q.store.get(sk); ok {
			rec.Cached = true
			rec.Reps = reps
		} else {
			if j.Spec.Stream {
				// Streamed churn trials route epoch rows through a spill
				// sink instead of retaining them in the result. The
				// rollup-only result is still cached (its Key carries the
				// rollup marker, so it can never answer a non-streamed
				// spec); a later cache hit serves the rollup without
				// epoch rows, matching what the streaming contract keeps.
				spill := newChurnSpill(t.ID, rec.Key)
				t.Sink = spill
				j.addSpill(spill)
			}
			res, panics := q.runner(j.ctx, []exp.Trial{t}, cfg)
			if len(res) > 0 {
				rec.Reps = res[0]
			}
			for _, pe := range panics {
				j.warn(t.ID, pe)
			}
			if len(panics) == 0 && len(rec.Reps) > 0 {
				q.store.put(sk, rec.Reps)
			}
		}
		j.complete(rec)
	}
	// A cancel that lands during the final unit changes nothing: every
	// unit completed, so the job did its work.
	j.finish(StateDone)
}

// health reports the pending channel's occupancy and whether any
// in-flight (queued or running) job streams its churn results — the
// signals the health endpoint surfaces so an operator can see both
// backlog and which sink memory mode the box is currently paying for.
func (q *queue) health() (depth, capacity int, streaming bool) {
	q.mu.Lock()
	jobs := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		jobs = append(jobs, j)
	}
	depth, capacity = len(q.pending), cap(q.pending)
	q.mu.Unlock()
	for _, j := range jobs {
		if j.Spec.Stream && !j.Status().State.terminal() {
			streaming = true
			break
		}
	}
	return depth, capacity, streaming
}

// close cancels every job, stops accepting submissions, and waits for
// the workers to drain (cancelled queued jobs are skipped, running ones
// stop at the next unit boundary).
func (q *queue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	jobs := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		jobs = append(jobs, j)
	}
	q.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	close(q.pending)
	q.wg.Wait()
}
