package core

import (
	"runtime"
	"testing"

	"pictor/internal/exp"
	"pictor/internal/fleet"
)

const diurnalGoldenPath = "testdata/diurnal_golden.txt"

// diurnalShape is the schedule tests' fixture: the golden churn fleet
// under a one-day sinusoidal curve whose period matches the horizon, so
// the sweep sees the trough, the ramp and the peak exactly once.
func diurnalShape() exp.FleetShape {
	return exp.FleetShape{
		Machines:          3,
		Policy:            fleet.PolicyRoundRobin,
		Mix:               string(fleet.MixHeavy),
		CoreClasses:       "8,4",
		Epochs:            6,
		ArrivalRate:       2,
		RateSchedule:      fleet.ScheduleDiurnal,
		PeakRate:          6,
		PeriodEpochs:      6,
		MeanSessionEpochs: 3,
	}
}

// TestGoldenDiurnalChurn pins the scheduled-arrival path the way the
// churn fixture pins flat-rate churn: a fixed-seed "churn" spec under
// diurnalShape's curve, run through RunSpec — with repetitions, so the schedule-qualified
// stream seeds are exercised — must be byte-identical at -parallel 1
// and 8 and must match the recorded fixture. The renderer includes the
// offered-session-epoch denominator, so the portal's incremental
// accounting is pinned here too.
func TestGoldenDiurnalChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2 churn trials × 2 reps × 2 parallelism levels")
	}
	sh := diurnalShape()
	spec := ExperimentSpec{
		Kind: SpecChurn, Warmup: 1, Seconds: 5, Reps: 2,
		Machines: sh.Machines, Policy: sh.Policy, Mix: sh.Mix, CoreClasses: sh.CoreClasses,
		Epochs: sh.Epochs, Rate: sh.ArrivalRate, Duration: sh.MeanSessionEpochs,
		Schedule: sh.RateSchedule, Peak: sh.PeakRate, Period: sh.PeriodEpochs,
	}
	run := func(parallel int) []ChurnResult {
		return runSpecAt(t, spec, parallel).Churn
	}
	rs := run(1)
	seq, par := renderFaults(rs), renderFaults(run(8))
	if seq != par {
		t.Fatalf("diurnal output diverges across parallelism:\n--- parallel 1 ---\n%s--- parallel 8 ---\n%s", seq, par)
	}
	static, migrated := rs[0], rs[1]
	if static.Arrivals != migrated.Arrivals || static.OfferedSessionEpochs != migrated.OfferedSessionEpochs {
		t.Fatalf("migration variants must share the scheduled tenant population: %d/%d arrivals, %d/%d offered",
			static.Arrivals, migrated.Arrivals, static.OfferedSessionEpochs, migrated.OfferedSessionEpochs)
	}
	if static.Arrivals == 0 || static.OfferedSessionEpochs == 0 {
		t.Fatalf("diurnal sweep produced an empty population: %+v", static)
	}
	checkGolden(t, diurnalGoldenPath, seq)
}

// TestConstantScheduleMatchesHistorical is the API redesign's
// compatibility oracle: an explicit "constant" rate schedule must
// produce results byte-identical to the historical implicit flat-rate
// path — same trial key, same derived stream seed, same simulation —
// across ten base seeds. If the schedule plumbing ever perturbs a
// constant-rate draw (a key segment joining unconditionally, an extra
// RNG consultation), this is the test that says so.
func TestConstantScheduleMatchesHistorical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 20 small churn trials")
	}
	historical := exp.FleetShape{
		Machines:          2,
		Policy:            fleet.PolicyRoundRobin,
		Mix:               string(fleet.MixHeavy),
		CoreClasses:       "8,4",
		Epochs:            4,
		ArrivalRate:       1.5,
		MeanSessionEpochs: 2,
	}
	constant := historical
	constant.RateSchedule = fleet.ScheduleConstant

	if a, b := exp.FleetTrial(historical).Key(), exp.FleetTrial(constant).Key(); a != b {
		t.Fatalf("a constant schedule must not change the trial key:\n implicit: %q\n explicit: %q", a, b)
	}

	base := QuickExperimentConfig()
	base.WarmupSeconds, base.Seconds = 1, 2
	for seed := int64(1); seed <= 10; seed++ {
		cfg := base
		cfg.Seed = seed
		want := renderFaults([]ChurnResult{RunFleetChurn(historical, cfg)})
		got := renderFaults([]ChurnResult{RunFleetChurn(constant, cfg)})
		if want != got {
			t.Fatalf("seed %d: explicit constant schedule diverges from the historical path:\n--- implicit ---\n%s--- constant ---\n%s",
				seed, want, got)
		}
	}
}

// TestRollupOnlyMatchesFullScalars pins the streaming sink's contract:
// a RollupOnly run folds exactly the same horizon scalars as the
// in-memory run — every counter, the offered/compliant availability
// pair, mean active and mean power — while retaining no per-epoch rows.
// (The horizon RTT is the documented epoch-weighted approximation and
// is asserted only to pool the same observation count.)
func TestRollupOnlyMatchesFullScalars(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2 small churn trials")
	}
	full := diurnalShape()
	rollup := full
	rollup.RollupOnly = true

	cfg := QuickExperimentConfig()
	cfg.WarmupSeconds, cfg.Seconds = 1, 2

	f := RunFleetChurn(full, cfg)
	r := RunFleetChurn(rollup, cfg)
	if len(f.Epochs) != full.Epochs {
		t.Fatalf("full run kept %d epoch rows, want %d", len(f.Epochs), full.Epochs)
	}
	if len(r.Epochs) != 0 {
		t.Fatalf("rollup-only run retained %d epoch rows", len(r.Epochs))
	}
	type scalars struct {
		arr, dep, mig, rej, qos, crash, evict, retried, rec, lost, degr, off, comp int
		active, watts, avail                                                       float64
	}
	of := func(c ChurnResult) scalars {
		return scalars{c.Arrivals, c.Departures, c.Migrations, c.Rejected, c.QoSViolations,
			c.Crashes, c.Evicted, c.Retried, c.Recovered, c.Lost, c.DegradedSessionEpochs,
			c.OfferedSessionEpochs, c.CompliantSessionEpochs,
			c.MeanActive, c.MeanPowerWatts, c.Availability}
	}
	if of(f) != of(r) {
		t.Fatalf("rollup-only scalars diverge from the in-memory run:\n full:   %+v\n rollup: %+v", of(f), of(r))
	}
	if f.RTT.N != r.RTT.N {
		t.Fatalf("rollup RTT pools %d observations, full pools %d", r.RTT.N, f.RTT.N)
	}
}

// TestChurnEpochLoopAllocations guards the epoch loop's steady state:
// on a surrogate, rollup-only churn at a constant rate, doubling the
// horizon adds machine-epochs but next to no allocations — no dispatch
// closure or queued event per machine, no per-machine Sessions or RTT
// slice, no seeded RNG register per jitter draw. What the extra epochs
// may allocate is per-epoch bookkeeping and session-pool growth.
func TestChurnEpochLoopAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 4 surrogate churn trials")
	}
	const machines, epochs = 200, 10
	shape := exp.FleetShape{
		Machines: machines, Policy: fleet.PolicyRoundRobin, Mix: string(fleet.MixHeavy),
		CoreClasses: "8,4", ArrivalRate: 300, MeanSessionEpochs: 2,
		SurrogateTail: true, RollupOnly: true,
	}
	cfg := QuickExperimentConfig()
	cfg.WarmupSeconds, cfg.Seconds, cfg.Parallel = 1, 5, 1
	mallocs := func(n int) uint64 {
		sh := shape
		sh.Epochs = n
		RunFleetChurn(sh, cfg) // calibrates the surrogate once per process
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		RunFleetChurn(sh, cfg)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	short, long := mallocs(epochs), mallocs(2*epochs)
	perMachineEpoch := (float64(long) - float64(short)) / (epochs * machines)
	t.Logf("%d vs %d objects: %.3f per extra machine-epoch", short, long, perMachineEpoch)
	if perMachineEpoch > 0.25 {
		t.Fatalf("the extra %d epochs allocate %.2f objects per machine-epoch, want well under 1",
			epochs, perMachineEpoch)
	}
}
