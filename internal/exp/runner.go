package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
)

// RunOptions configures how a grid of trials is executed.
type RunOptions struct {
	// Parallel is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	Parallel int
	// Reps is how many repetitions (independent seeds) to run per
	// trial; <= 0 means 1.
	Reps int
	// BaseSeed is the grid's base seed, mixed into every derived seed.
	BaseSeed int64
}

// EffectiveParallel resolves a worker-count setting the way RunChecked
// does: <= 0 means every available core. Exported so CLIs and examples
// can report what the runner will actually do from one source of truth.
func EffectiveParallel(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// EffectiveReps resolves a repetition setting the way RunChecked does.
func EffectiveReps(n int) int {
	if n <= 0 {
		return 1
	}
	return n
}

func (o RunOptions) normalize() RunOptions {
	o.Parallel = EffectiveParallel(o.Parallel)
	o.Reps = EffectiveReps(o.Reps)
	return o
}

// Unit identifies one execution of one trial: the repetition index and
// the seed the executor must build its cluster with. Base echoes the
// grid's base seed (RunOptions.BaseSeed): unlike Seed it is independent
// of the trial's key, so executors that must derive *matched* streams
// across related trials (fleet comparisons share one arrival stream
// across policies) can fall back to it when no trial seed is pinned.
type Unit struct {
	TrialIndex int
	Rep        int
	Seed       int64
	Base       int64
}

// UnitSeed resolves the seed for repetition rep of trial t: a pinned
// Trial.Seed wins for the first repetition (legacy single-run
// compatibility); everything else derives deterministically.
func UnitSeed(t Trial, rep int, base int64) int64 {
	if rep == 0 && t.Seed != 0 {
		return t.Seed
	}
	if t.Seed != 0 {
		base = t.Seed
	}
	return DeriveSeed(base, t.Key(), rep)
}

// PanicError is a panic recovered from one (trial, repetition)
// execution unit, carrying enough identity — the trial's ID, its full
// Key() and the repetition index — to re-run the poisoned unit in
// isolation. RunChecked returns these.
type PanicError struct {
	// TrialIndex is the trial's position in the submitted grid.
	TrialIndex int
	// TrialID is the trial's human label (may be empty).
	TrialID string
	// TrialKey is the trial's Key(): the complete serialized spec, so
	// the failing unit can be reconstructed without the original grid.
	TrialKey string
	// Rep is the repetition index that panicked.
	Rep int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack string
}

// Error implements error with the trial identity first — the point is
// that a sweep failure names the poisoned unit, not just the panic.
func (e *PanicError) Error() string {
	id := e.TrialID
	if id == "" {
		id = "(unnamed trial)"
	}
	return fmt.Sprintf("exp: trial %q rep %d panicked: %v\n  key: %s\n%s",
		id, e.Rep, e.Value, e.TrialKey, e.Stack)
}

// RunChecked executes every (trial, repetition) unit of the grid on a
// worker pool and returns results indexed [trial][rep], in input order
// regardless of scheduling. Each unit gets a deterministic seed via
// UnitSeed, so results are byte-identical at any parallelism level as
// long as exec is a pure function of (Trial, Unit).
//
// exec runs concurrently from multiple goroutines. A panicking exec
// fails only its own (trial, repetition) unit — recovered into a
// PanicError carrying the trial's ID, Key() and repetition — while
// every other unit runs to completion and keeps its result. The zero
// value of T is left in the failed unit's result slot. Errors are
// returned sorted by (trial, rep), deterministic at any parallelism.
func RunChecked[T any](trials []Trial, exec func(Trial, Unit) T, opts RunOptions) ([][]T, []*PanicError) {
	opts = opts.normalize()

	type unitRef struct {
		trial, rep int
	}
	units := make([]unitRef, 0, len(trials)*opts.Reps)
	for ti := range trials {
		for r := 0; r < opts.Reps; r++ {
			units = append(units, unitRef{ti, r})
		}
	}

	out := make([][]T, len(trials))
	for i := range out {
		out[i] = make([]T, opts.Reps)
	}
	if len(units) == 0 {
		return out, nil
	}

	workers := opts.Parallel
	if workers > len(units) {
		workers = len(units)
	}

	var mu sync.Mutex
	var failures []*PanicError
	runOne := func(i int) {
		u := units[i]
		t := trials[u.trial]
		defer func() {
			if r := recover(); r != nil {
				pe := &PanicError{
					TrialIndex: u.trial,
					TrialID:    t.ID,
					TrialKey:   t.Key(),
					Rep:        u.rep,
					Value:      r,
					Stack:      string(debug.Stack()),
				}
				mu.Lock()
				failures = append(failures, pe)
				mu.Unlock()
			}
		}()
		out[u.trial][u.rep] = exec(t, Unit{
			TrialIndex: u.trial,
			Rep:        u.rep,
			Seed:       UnitSeed(t, u.rep, opts.BaseSeed),
			Base:       opts.BaseSeed,
		})
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				runOne(i)
			}
		}()
	}
	for i := range units {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	// Scheduling decides discovery order; report in grid order so a
	// failing sweep prints identically at any parallelism level.
	sort.Slice(failures, func(a, b int) bool {
		fa, fb := failures[a], failures[b]
		if fa.TrialIndex != fb.TrialIndex {
			return fa.TrialIndex < fb.TrialIndex
		}
		return fa.Rep < fb.Rep
	})
	return out, failures
}
