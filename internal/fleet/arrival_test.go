package fleet

import (
	"math"
	"testing"
)

// TestChurnSourceOfferedEpochsAndHorizon pins the two horizon
// contracts the availability denominator rests on: summing each
// arrival's horizon-clipped wanted epochs (what the churn portal does
// as arrivals are offered) counts exactly the (session, epoch) pairs
// in which a tenant wants service inside the horizon, and past the
// horizon Next returns nil.
func TestChurnSourceOfferedEpochsAndHorizon(t *testing.T) {
	const epochs = 12
	src, err := NewChurnSource(ArrivalConfig{
		Mix: MixShuffled, Rate: 2.5, MeanSessionEpochs: 3, Epochs: epochs, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*Session
	offered := 0
	for e := 0; e < epochs; e++ {
		for _, s := range src.Next(e) {
			offered += min(s.Departs, epochs) - s.Arrive
			sessions = append(sessions, s)
		}
	}
	wanting := 0
	for e := 0; e < epochs; e++ {
		for _, s := range sessions {
			if s.Arrive <= e && e < s.Departs {
				wanting++
			}
		}
	}
	if offered == 0 || offered != wanting {
		t.Fatalf("offered session-epochs %d, sessions wanting service per epoch sum to %d", offered, wanting)
	}
	if got := src.Next(epochs); got != nil {
		t.Fatalf("past the horizon Next must return nil, got %d sessions", len(got))
	}
}

// TestChurnSourceOutOfOrderPanics: serving an out-of-order epoch would
// silently change the schedule, so it must refuse loudly instead.
func TestChurnSourceOutOfOrderPanics(t *testing.T) {
	src, err := NewChurnSource(ArrivalConfig{
		Mix: MixSuite, Rate: 1, MeanSessionEpochs: 1, Epochs: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.Next(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Next(3) after Next(0) must panic")
		}
	}()
	src.Next(3)
}

// TestChurnSourceRecyclesSessions pins the free list: a recycled
// session's storage is handed back out by a later Next with every field
// overwritten — no tier, placement or identity leaks from the previous
// tenant.
func TestChurnSourceRecyclesSessions(t *testing.T) {
	src, err := NewChurnSource(ArrivalConfig{
		Mix: MixHeavy, Rate: 4, MeanSessionEpochs: 2, Epochs: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := src.Next(0)
	if len(first) == 0 {
		t.Skip("seed produced an empty first epoch")
	}
	recycled := first[0]
	recycled.Machine = 7
	recycled.Variant = recycled.Variant.AtTier(2)
	src.Recycle(recycled)
	for e := 1; e < 8; e++ {
		for _, s := range src.Next(e) {
			if s != recycled {
				continue
			}
			if s.Arrive != e || s.Machine != -1 || s.Variant.Tier != 0 {
				t.Fatalf("recycled session not fully overwritten: %+v", *s)
			}
			return
		}
	}
	t.Fatal("free list never handed the recycled session back out")
}

// TestScheduleRateShapes pins the rate curves as documented: diurnal
// troughs at each period boundary and peaks half way through; flash
// holds the baseline except the [period, 2·period) spike window; the
// constant schedule ignores peak and period entirely.
func TestScheduleRateShapes(t *testing.T) {
	const (
		base   = 100.0
		peak   = 400.0
		period = 10
	)
	if r := scheduleRate(ScheduleDiurnal, base, peak, period, 0); r != base {
		t.Fatalf("diurnal trough = %g, want %g", r, base)
	}
	if r := scheduleRate(ScheduleDiurnal, base, peak, period, period/2); math.Abs(r-peak) > 1e-9 {
		t.Fatalf("diurnal peak = %g, want %g", r, peak)
	}
	if a, b := scheduleRate(ScheduleDiurnal, base, peak, period, 3), scheduleRate(ScheduleDiurnal, base, peak, period, period+3); a != b {
		t.Fatalf("diurnal must repeat every period: epoch 3 = %g, epoch %d = %g", a, period+3, b)
	}
	for _, c := range []struct {
		epoch int
		want  float64
	}{
		{0, base}, {period - 1, base}, {period, peak}, {2*period - 1, peak}, {2 * period, base},
	} {
		if r := scheduleRate(ScheduleFlash, base, peak, period, c.epoch); r != c.want {
			t.Fatalf("flash epoch %d = %g, want %g", c.epoch, r, c.want)
		}
	}
	for _, sched := range []string{"", ScheduleConstant} {
		if r := scheduleRate(sched, base, peak, period, 5); r != base {
			t.Fatalf("%q schedule must ignore peak/period, got %g", sched, r)
		}
	}
}

// TestValidateSchedule: the shared validation every entry point (CLI,
// server, library) routes through.
func TestValidateSchedule(t *testing.T) {
	if err := ValidateSchedule("", 2, 0, 0); err != nil {
		t.Fatalf("implicit constant: %v", err)
	}
	if err := ValidateSchedule(ScheduleConstant, 2, 0, 0); err != nil {
		t.Fatalf("explicit constant: %v", err)
	}
	if err := ValidateSchedule(ScheduleDiurnal, 2, 6, 10); err != nil {
		t.Fatalf("valid diurnal: %v", err)
	}
	for name, err := range map[string]error{
		"unknown":        ValidateSchedule("wat", 2, 6, 10),
		"peak below":     ValidateSchedule(ScheduleDiurnal, 5, 2, 10),
		"missing period": ValidateSchedule(ScheduleFlash, 2, 6, 0),
		"NaN peak":       ValidateSchedule(ScheduleDiurnal, 2, math.NaN(), 10),
		"infinite peak":  ValidateSchedule(ScheduleFlash, 2, math.Inf(1), 10),
	} {
		if err == nil {
			t.Fatalf("%s schedule must be rejected", name)
		}
	}
}

// TestChurnSourceScheduledVolume: over a long horizon a diurnal source
// must actually deliver more sessions than its constant-rate trough —
// the schedule bends the Poisson rate, not just a label.
func TestChurnSourceScheduledVolume(t *testing.T) {
	const epochs = 40
	count := func(schedule string) int {
		src, err := NewChurnSource(ArrivalConfig{
			Mix: MixSuite, Schedule: schedule,
			Rate: 5, PeakRate: 25, PeriodEpochs: 10,
			MeanSessionEpochs: 2, Epochs: epochs, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for e := 0; e < epochs; e++ {
			n += len(src.Next(e))
		}
		return n
	}
	flat := count(ScheduleConstant)
	diurnal := count(ScheduleDiurnal)
	flash := count(ScheduleFlash)
	if diurnal <= flat || flash <= flat {
		t.Fatalf("scheduled sources must out-arrive the trough: constant %d, diurnal %d, flash %d", flat, diurnal, flash)
	}
}
