package core

// Result sinks: the churn executor historically appended every epoch's
// row to ChurnResult.Epochs, which is fine at tens of epochs and fatal
// for the 10k-machine diurnal sweep — with OccupancyDetail the result
// holds O(machines × epochs) rows before anyone reads it. ChurnSink
// inverts that: the portal streams each finished epoch to an observer,
// and what the result retains is the observer's policy. The default
// in-memory sink reproduces today's ChurnResult exactly; the rollup
// sink keeps nothing but the horizon rollups (which the portal folds
// regardless); the server's CSV spill writes rows to disk as they
// close. The simulation itself never changes — a sink only decides
// where the rows land.

// ChurnSink observes one churn execution's per-epoch results as they
// close. The portal calls ObserveEpoch exactly once per epoch, in epoch
// order, after the epoch's controllers have reacted — the EpochResult
// is final when observed. When the shape sets OccupancyDetail the
// epoch's per-machine rows ride in EpochResult.Occupancy.
type ChurnSink interface {
	// ObserveEpoch receives the epoch's finished fleet-wide row.
	ObserveEpoch(e EpochResult)
}

// ChurnSinkFactory hands out one ChurnSink per execution unit. Churn
// trials repeat under derived seeds and may run on parallel workers;
// a factory lets an observer (the server's CSV spill) keep per-rep
// streams separate without locking one shared sink across workers.
// exp.Trial.Sink may hold either a ChurnSink (shared across reps —
// the implementation synchronizes) or a ChurnSinkFactory.
type ChurnSinkFactory interface {
	ChurnSinkFor(rep int, seed int64) ChurnSink
}

// memorySink is the default: retain every epoch row in the result,
// exactly the historical ChurnResult shape. Occupancy rows ride inside
// the epoch row (EpochResult.Occupancy), so retaining the row retains
// them.
type memorySink struct {
	out *ChurnResult
}

func (s *memorySink) ObserveEpoch(e EpochResult) { s.out.Epochs = append(s.out.Epochs, e) }

// rollupSink is the aggregate-only sink behind FleetShape.RollupOnly:
// per-epoch rows and occupancy snapshots are dropped as they close,
// bounding the result to the horizon rollups — O(machines) transient
// state instead of O(machines × epochs) retained rows. The portal
// folds the rollup counters and pools the per-epoch RTT summaries
// itself, so dropping here loses nothing the rollups need.
type rollupSink struct{}

func (rollupSink) ObserveEpoch(EpochResult) {}

// resolveChurnSink picks the execution's sink: an executor-provided
// Sink (factory or sink) wins and implies streaming — the caller asked
// to observe rows, not to retain them twice; otherwise RollupOnly
// selects the aggregate-only sink, and the default retains everything
// in memory as the result API always has.
func resolveChurnSink(sink any, rollupOnly bool, rep int, seed int64, out *ChurnResult) (ChurnSink, bool) {
	switch s := sink.(type) {
	case ChurnSinkFactory:
		return s.ChurnSinkFor(rep, seed), true
	case ChurnSink:
		return s, true
	}
	if rollupOnly {
		return rollupSink{}, true
	}
	return &memorySink{out: out}, false
}
