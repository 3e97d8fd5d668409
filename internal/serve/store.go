package serve

import (
	"container/list"
	"fmt"
	"sync"

	"pictor/internal/core"
	"pictor/internal/exp"
)

// defaultStoreEntries bounds the result cache when the server config
// does not say otherwise: 256 cached trials is plenty for a working
// set of sweeps while keeping the worst case — wide grids of
// many-epoch churn results — bounded regardless of uptime.
const defaultStoreEntries = 256

// store is the cross-run result cache: executed trial repetitions keyed
// by as-executed identity. The grid's in-plan dedup collapses duplicate
// trials within one batch; the store extends that across jobs, so
// re-submitting an identical spec (same reps, same base seed) answers
// from recorded results in milliseconds instead of re-simulating.
//
// The cache is bounded: at most max entries live at once, and inserting
// past the bound evicts the least-recently-used entry (both gets and
// puts refresh recency). A long-running server sweeping disjoint specs
// therefore plateaus instead of growing without limit; an evicted trial
// simply re-executes on resubmission.
type store struct {
	mu        sync.Mutex
	max       int
	entries   map[string]*list.Element
	order     *list.List // front = most recently used
	hits      int
	misses    int
	evictions int
}

// storeEntry is one cache line: the key rides along so eviction of the
// list tail can delete its map entry.
type storeEntry struct {
	key  string
	reps []core.TrialResult
}

// newStore builds a bounded result cache; max <= 0 selects the default
// bound.
func newStore(max int) *store {
	if max <= 0 {
		max = defaultStoreEntries
	}
	return &store{
		max:     max,
		entries: map[string]*list.Element{},
		order:   list.New(),
	}
}

// storeKey is the cache identity of one trial under one run
// configuration: the trial's raw Key() — the string its unit seeds and
// arrival streams derive from, so two specs share a cache line only
// when they run the same executions — plus the repetition count and
// base seed, which select which executions the repetitions actually
// are. Parallelism is deliberately absent: results are byte-identical
// at any worker count.
func storeKey(t exp.Trial, cfg core.ExperimentConfig) string {
	return fmt.Sprintf("%s|reps=%d|base=%d", t.Key(), exp.EffectiveReps(cfg.Reps), cfg.Seed)
}

// get returns the recorded repetitions for a key, counting the lookup
// and refreshing the entry's recency on a hit.
func (s *store) get(key string) ([]core.TrialResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.order.MoveToFront(el)
	return el.Value.(*storeEntry).reps, true
}

// put records a trial's executed repetitions, evicting the
// least-recently-used entry when the bound is exceeded. Callers must
// not store poisoned results (a panicked unit leaves a zero-value
// repetition): a failed trial should re-execute on resubmission, not
// serve zeros forever.
func (s *store) put(key string, reps []core.TrialResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*storeEntry).reps = reps
		s.order.MoveToFront(el)
		return
	}
	s.entries[key] = s.order.PushFront(&storeEntry{key: key, reps: reps})
	for s.order.Len() > s.max {
		tail := s.order.Back()
		s.order.Remove(tail)
		delete(s.entries, tail.Value.(*storeEntry).key)
		s.evictions++
	}
}

// stats reports (entries, hits, misses, evictions) for the health
// endpoint.
func (s *store) stats() (entries, hits, misses, evictions int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.hits, s.misses, s.evictions
}
