package fleet

import (
	"fmt"
	"math"

	"pictor/internal/app"
	"pictor/internal/sim"
)

// Streaming arrival API: the churn layer historically materialized the
// whole [][]*Session horizon up front, which is fine at thousands of
// sessions and fatal at a million — the 10k-machine diurnal sweep would
// hold every tenant of a 200-epoch day in memory before the first epoch
// executes. ArrivalSource inverts that: the epoch loop pulls each
// epoch's arrivals on demand, the source draws them from exactly the
// same RNG discipline the materialized stream used (so constant-rate
// schedules stay byte-identical), and finished sessions flow back into
// a free list owned by the source instead of the garbage collector.

// ArrivalSource produces each epoch's arriving sessions on demand.
// Epochs must be requested strictly in order starting at 0 — the
// schedule is drawn from sequential RNG state, so random access would
// change it. The returned slice is valid until the next call to Next
// (sources may reuse the backing array); callers that retain it must
// copy. Past the source's horizon, Next returns nil forever. Each
// session's Variant is a handle into a catalog the source owns, which
// outlives every session it hands out.
type ArrivalSource interface {
	SessionPool
	// Next returns the sessions arriving in the given epoch.
	Next(epoch int) []*Session
}

// SessionPool recycles sessions whose lifecycle has terminally ended
// (departed, or lost with no retry pending). Implementations may hand
// the same *Session back out from a later Next; callers must not touch
// a session after recycling it.
type SessionPool interface {
	Recycle(s *Session)
}

// Rate-schedule names for ArrivalConfig.Schedule (and the
// exp.FleetShape.RateSchedule knob). The empty string means constant.
const (
	// ScheduleConstant is the historical behaviour: a flat Poisson
	// rate every epoch, byte-identical to the pre-schedule streams.
	ScheduleConstant = "constant"
	// ScheduleDiurnal is a sinusoidal day curve: the rate starts at
	// the trough (Rate), peaks at PeakRate half a period in, and
	// returns to the trough every PeriodEpochs epochs.
	ScheduleDiurnal = "diurnal"
	// ScheduleFlash is a flash crowd: the baseline Rate everywhere
	// except a spike window of PeriodEpochs epochs at PeakRate,
	// starting at epoch PeriodEpochs (one quiet lead-in period).
	ScheduleFlash = "flash"
)

// Schedules lists the arrival rate schedules in documentation order.
func Schedules() []string {
	return []string{ScheduleConstant, ScheduleDiurnal, ScheduleFlash}
}

// ValidateSchedule checks a rate-schedule selection with actionable
// messages, shared by the arrival source and the shape validators so a
// typo fails identically from the CLI, the server and the library.
// rate is the constant/trough/baseline arrival rate (validated
// separately via ValidateChurnParams).
func ValidateSchedule(schedule string, rate, peak float64, period int) error {
	switch schedule {
	case "", ScheduleConstant:
		return nil
	case ScheduleDiurnal, ScheduleFlash:
		if !(peak >= rate) || math.IsInf(peak, 1) {
			return fmt.Errorf("fleet: %s schedule needs a finite peak rate >= the base rate %g sessions/epoch, got %g", schedule, rate, peak)
		}
		if period < 1 {
			return fmt.Errorf("fleet: %s schedule needs a period >= 1 epoch, got %d", schedule, period)
		}
		return nil
	}
	return fmt.Errorf("fleet: unknown rate schedule %q (schedules: %v)", schedule, Schedules())
}

// scheduleRate is the arrival rate for one epoch under a schedule. The
// constant schedule ignores peak and period entirely, so it cannot
// perturb the historical Poisson draws.
func scheduleRate(schedule string, rate, peak float64, period, epoch int) float64 {
	switch schedule {
	case ScheduleDiurnal:
		// Trough at the start of each period, peak half way through:
		// rate + (peak-rate) · (1-cos(2πt/T))/2.
		t := float64(epoch%period) / float64(period)
		return rate + (peak-rate)*0.5*(1-math.Cos(2*math.Pi*t))
	case ScheduleFlash:
		if epoch >= period && epoch < 2*period {
			return peak
		}
		return rate
	}
	return rate
}

// ArrivalConfig describes a churn arrival process for NewChurnSource.
type ArrivalConfig struct {
	// Suite is the workload set profiles draw from (nil = the paper's
	// six, keeping pre-registry schedules byte-identical).
	Suite []app.Profile
	// Mix names the arrival mix (suite/shuffled/heavy).
	Mix Mix
	// Schedule selects the rate schedule; "" and ScheduleConstant are
	// the historical flat-rate behaviour.
	Schedule string
	// Rate is the mean Poisson arrivals per epoch: the whole story for
	// constant schedules, the trough for diurnal, the baseline for
	// flash.
	Rate float64
	// PeakRate is the diurnal peak / flash spike rate (ignored for
	// constant schedules).
	PeakRate float64
	// PeriodEpochs is the diurnal period / flash spike width in epochs
	// (ignored for constant schedules).
	PeriodEpochs int
	// MeanSessionEpochs is the exponential mean session length.
	MeanSessionEpochs float64
	// Epochs is the horizon; Next returns nil past it.
	Epochs int
	// Seed pins the whole schedule: arrivals, durations and profiles
	// draw from independent forks of it.
	Seed int64
}

// ChurnSource is the streaming Poisson arrival source. Each epoch's
// arrival count is Poisson at the schedule's rate, profiles are drawn
// from the named mix, and session lengths are exponential with mean
// MeanSessionEpochs (rounded up, so every session runs at least one
// epoch). Arrivals, durations and profiles draw from independent RNG
// forks in the historical materialized stream's order, one epoch at a
// time, so a constant-schedule source reproduces the historical
// schedules byte for byte. Recycled sessions come back out of Next
// with every field overwritten; the free list makes a million-session
// sweep allocate O(peak concurrent sessions), not O(total arrivals).
// Sessions point into the source's catalog over ArrivalConfig.Suite,
// so an arrival copies no profile.
type ChurnSource struct {
	cfg       ArrivalConfig
	cat       *Catalog // over the set draw indexes
	draw      func() int
	arrivals  *sim.RNG
	durations *sim.RNG
	cursor    int // next epoch Next must be asked for
	id        int // arrival sequence number
	batch     []*Session
	free      []*Session
	slab      []Session
}

// sessionSlab is the allocation granule for fresh sessions: big enough
// to amortize allocator round-trips at 10k-machine sweep rates, small
// enough that a toy demo does not notice.
const sessionSlab = 1024

// NewChurnSource validates the config and builds the source. The
// schedule is a pure function of the config: two sources with equal
// configs produce identical sessions in identical order.
func NewChurnSource(cfg ArrivalConfig) (*ChurnSource, error) {
	if err := ValidateChurnParams(cfg.Rate, cfg.MeanSessionEpochs, cfg.Epochs); err != nil {
		return nil, err
	}
	if err := ValidateSchedule(cfg.Schedule, cfg.Rate, cfg.PeakRate, cfg.PeriodEpochs); err != nil {
		return nil, err
	}
	suite, draw, err := profileDrawer(cfg.Suite, cfg.Mix, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &ChurnSource{
		cfg:       cfg,
		cat:       NewCatalog(suite),
		draw:      draw,
		arrivals:  sim.NewRNG(cfg.Seed).Fork("fleet/churn/arrivals"),
		durations: sim.NewRNG(cfg.Seed).Fork("fleet/churn/durations"),
	}, nil
}

// Next returns the sessions arriving in the given epoch. Epochs must
// be consumed strictly in order from 0 (the churn epoch loop
// guarantees this); anything else panics, because serving it would
// silently change the schedule. The returned slice is reused by the
// following call.
func (src *ChurnSource) Next(epoch int) []*Session {
	if epoch != src.cursor {
		panic(fmt.Sprintf("fleet: ChurnSource.Next(%d) out of order, want epoch %d", epoch, src.cursor))
	}
	src.cursor++
	if epoch >= src.cfg.Epochs {
		return nil
	}
	src.batch = src.batch[:0]
	rate := scheduleRate(src.cfg.Schedule, src.cfg.Rate, src.cfg.PeakRate, src.cfg.PeriodEpochs, epoch)
	for i := src.arrivals.Poisson(rate); i > 0; i-- {
		d := int(math.Ceil(src.durations.Exponential(src.cfg.MeanSessionEpochs)))
		if d < 1 {
			d = 1
		}
		s := src.take()
		// Every field is assigned, so a recycled session leaks nothing
		// of its previous tenant (brown-out tier, placement).
		*s = Session{
			ID: src.id, Variant: src.cat.Variant(src.draw(), 0),
			Arrive: epoch, Departs: epoch + d, Machine: -1,
		}
		src.batch = append(src.batch, s)
		src.id++
	}
	if len(src.batch) == 0 {
		return nil
	}
	return src.batch
}

// Catalog returns the catalog the source's sessions point into.
func (src *ChurnSource) Catalog() *Catalog { return src.cat }

// take pops the free list, falling back to slab allocation.
func (src *ChurnSource) take() *Session {
	if n := len(src.free); n > 0 {
		s := src.free[n-1]
		src.free = src.free[:n-1]
		return s
	}
	if len(src.slab) == 0 {
		src.slab = make([]Session, sessionSlab)
	}
	s := &src.slab[0]
	src.slab = src.slab[1:]
	return s
}

// Recycle returns a terminally-finished session to the free list. The
// caller must hold no further references: Next hands it back out with
// every field overwritten.
func (src *ChurnSource) Recycle(s *Session) {
	if s == nil {
		return
	}
	src.free = append(src.free, s)
}
