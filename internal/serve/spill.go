package serve

import (
	"sort"
	"sync"

	"pictor/internal/core"
)

// churnSpill is the server's streaming result sink. Attached as the
// Trial.Sink of an executed churn trial whose spec streams, it receives
// every epoch the churn loop closes and spills it straight into
// pre-rendered CSV cells. The trial's in-memory result keeps only the
// horizon rollup (O(1) per repetition — that is what the JSON export
// and the result cache hold), occupancy detail is dropped at the sink,
// and /results.csv stitches the spilled "epoch" rows back in: per-epoch
// visibility at O(epochs) cells instead of O(machines x epochs)
// result structs living in the job for the server's lifetime.
type churnSpill struct {
	rec TrialRecord // identity cells (trial ID + key); spilled rows are never cached

	mu   sync.Mutex
	rows map[int][][]string // rep -> epoch rows, in epoch order within a rep
}

func newChurnSpill(trialID, key string) *churnSpill {
	return &churnSpill{
		rec:  TrialRecord{Trial: trialID, Key: key},
		rows: map[int][][]string{},
	}
}

// ChurnSinkFor implements core.ChurnSinkFactory: one sink per
// repetition, so concurrently-executing reps never interleave rows
// within a rep and every row carries its repetition's seed.
func (cs *churnSpill) ChurnSinkFor(rep int, seed int64) core.ChurnSink {
	return &spillSink{spill: cs, rep: rep, seed: seed}
}

// snapshot returns the spilled rows in (rep, epoch) order. Safe while
// the trial is still executing — the export simply sees the epochs
// recorded so far, matching the partial-while-running export contract.
func (cs *churnSpill) snapshot() [][]string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	reps := make([]int, 0, len(cs.rows))
	for rep := range cs.rows {
		reps = append(reps, rep)
	}
	sort.Ints(reps)
	var out [][]string
	for _, rep := range reps {
		out = append(out, cs.rows[rep]...)
	}
	return out
}

// spillSink is one repetition's view of the spill. Epoch results render
// to CSV cells immediately and append under the spill's lock; the lock
// is per-epoch, far coarser than the simulation's inner loops.
type spillSink struct {
	spill *churnSpill
	rep   int
	seed  int64
}

func (s *spillSink) ObserveEpoch(e core.EpochResult) {
	row := epochCSVRow(s.spill.rec, s.rep, s.seed, e)
	s.spill.mu.Lock()
	s.spill.rows[s.rep] = append(s.spill.rows[s.rep], row)
	s.spill.mu.Unlock()
}
