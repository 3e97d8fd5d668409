package core

import (
	"fmt"

	"pictor/internal/exp"
	"pictor/internal/fleet"
	"pictor/internal/stats"
)

// EpochResult is one churn epoch's fleet-wide outcome: the lifecycle
// events that happened in the epoch plus the measurements of the
// sessions that executed in it.
type EpochResult struct {
	// Epoch is the epoch index.
	Epoch int
	// Arrivals..Rejected count the epoch's lifecycle events (Rejected
	// arrivals found no feasible machine; Migrations were triggered by
	// this epoch's measurements and take effect next epoch).
	Arrivals   int
	Departures int
	Migrations int
	Rejected   int
	// Active is how many sessions actually executed this epoch.
	Active int
	// OfferedSessionEpochs counts, for the sessions arriving this
	// epoch, every epoch they want service inside the horizon (whether
	// admitted or not) — the availability denominator, accumulated
	// incrementally as arrivals are offered so a streamed run never
	// needs the materialized schedule.
	OfferedSessionEpochs int
	// Crashes and Evicted count fault injection: machines that went
	// down this epoch and the resident sessions they force-released.
	Crashes int
	Evicted int
	// Retried and Recovered count failover: matured retry attempts
	// this epoch and how many of them were re-admitted.
	Retried   int
	Recovered int
	// Degraded is a gauge: how many of the epoch's executed sessions
	// ran below full fidelity (brown-out tiers).
	Degraded int
	// QoSViolations counts executed instances below the 25-FPS floor.
	QoSViolations int
	// PowerWatts is fleet wall power over the epoch, idle machines
	// included.
	PowerWatts float64
	// RTT pools every executed instance's RTT distribution.
	RTT stats.Summary
	// Occupancy holds one row per machine (index order) when the shape
	// opts into OccupancyDetail — the placement-heatmap feed. Nil
	// otherwise, keeping default payloads small.
	Occupancy []MachineOccupancy
}

// MachineOccupancy is one machine's epoch snapshot for placement
// heatmaps: who was up, how loaded, at what fidelity tier, and what it
// measured. Rows are recorded at the epoch's gauge point (post-
// admission, pre-execution); RTTMean and PowerWatts are filled in as
// the machine's measurements are collected (a crashed machine keeps
// them zero — powered off, nothing executed).
type MachineOccupancy struct {
	// Machine is the machine index; State its availability.
	Machine int
	State   fleet.MachineState
	// Residents counts placed sessions; Degraded how many of them run
	// below full quality; Demand is the summed predicted CPU demand.
	Residents int
	Degraded  int
	Demand    float64
	// Surrogate marks the machine as running on the surrogate engine
	// this epoch (fidelity tiers on and outside the sampled cohort).
	Surrogate bool
	// RTTMean is the machine's pooled mean RTT (ms); PowerWatts its
	// modelled wall power over the epoch.
	RTTMean    float64
	PowerWatts float64
}

// ChurnResult is the outcome of one epoch-based churn trial: per-epoch
// rows plus horizon-wide rollups.
type ChurnResult struct {
	// Policy, Mix and Migrate echo the executed shape.
	Policy  string
	Mix     string
	Migrate bool
	// Faulty, Retry and Degrade echo the shape's robustness knobs
	// (fault injection on, failover on, brown-out tiers on).
	Faulty  bool
	Retry   bool
	Degrade bool
	// Epochs holds one row per epoch, in order.
	Epochs []EpochResult
	// Totals over the horizon.
	Arrivals      int
	Departures    int
	Migrations    int
	Rejected      int
	QoSViolations int
	// Fault/failover totals over the horizon. Lost counts sessions
	// that were rejected or evicted and never came back (retries
	// exhausted, or the tenant departed first); DegradedSessionEpochs
	// sums the per-epoch Degraded gauge.
	Crashes               int
	Evicted               int
	Retried               int
	Recovered             int
	Lost                  int
	DegradedSessionEpochs int
	// Availability is the robustness headline: QoS-compliant
	// session-epochs over offered session-epochs. Offered counts every
	// epoch each scheduled arrival wanted service inside the horizon
	// (whether admitted or not); compliant counts executed
	// session-epochs that met the 25-FPS floor.
	OfferedSessionEpochs   int
	CompliantSessionEpochs int
	Availability           float64
	// MeanActive and MeanPowerWatts average the per-epoch session
	// count and fleet power over the horizon.
	MeanActive     float64
	MeanPowerWatts float64
	// RTT pools every executed instance's RTT distribution across all
	// epochs.
	RTT stats.Summary
	// RepsMerged is how many repetitions the scalars aggregate (1 = a
	// single execution; per-epoch rows average across reps — epochs
	// align, because the horizon is part of the shape).
	RepsMerged int
}

// executeFleetChurn runs a churn-shaped trial: it draws the arrival and
// fault schedules, assembles a churnPortal — the fleet lifecycle plus
// the fidelity dispatch — and runs its epoch loop through the horizon
// in the exact order the historical nested loop ran, so full-fidelity
// runs are byte-identical to it, while shapes with SurrogateTail
// execute their tail machines on calibrated predictors instead of
// per-frame simulation. The loop runs sequentially inside the one
// execution unit — the runner already shards trials across workers —
// so churn sweeps stay byte-identical at any parallelism level.
func executeFleetChurn(t exp.Trial, u exp.Unit) *ChurnResult {
	sh := *t.Fleet
	// Like the one-shot stream, the arrival schedule must be derived
	// policy- and migration-independently: the unit seed encodes the
	// trial key (which names both), so a migration-vs-static comparison
	// seeded from it would churn two *different* tenant populations.
	// Deriving from the pinned trial seed and the schedule's own
	// parameters keeps the populations matched (and distinct per rep);
	// with no pinned seed ("-seed 0", derive-everything mode) the
	// grid's base seed — key-independent by construction — fills in,
	// never the key-derived u.Seed.
	streamBase := t.Seed
	if streamBase == 0 {
		streamBase = u.Base
	}
	suite := resolveShapeProfiles(t.ID, sh.Profiles)
	// Like the one-shot stream key, the workload subset joins only when
	// set, so pre-registry schedules derive their historical seeds.
	streamKey := fmt.Sprintf("fleet/churn|%s|rate=%g|dur=%g|epochs=%d",
		sh.Mix, sh.ArrivalRate, sh.MeanSessionEpochs, sh.Epochs)
	if sh.Profiles != "" {
		streamKey += "|profiles=" + sh.Profiles
	}
	// The schedule joins the stream key only when it actually bends the
	// rate, so every constant-rate shape derives its exact historical
	// stream seed (and therefore its exact historical schedule).
	if sh.Scheduled() {
		streamKey += fmt.Sprintf("|sched=%s|peak=%g|period=%d",
			sh.RateSchedule, sh.PeakRate, sh.PeriodEpochs)
	}
	src, err := fleet.NewChurnSource(fleet.ArrivalConfig{
		Suite: suite, Mix: fleet.Mix(sh.Mix),
		Schedule: sh.RateSchedule, Rate: sh.ArrivalRate,
		PeakRate: sh.PeakRate, PeriodEpochs: sh.PeriodEpochs,
		MeanSessionEpochs: sh.MeanSessionEpochs, Epochs: sh.Epochs,
		Seed: exp.DeriveSeed(streamBase, streamKey, u.Rep),
	})
	if err != nil {
		panic(fmt.Sprintf("core: churn trial %q: %v", t.ID, err))
	}

	pol := fleetPolicy(t.ID, sh.Policy, suite)
	f := buildFleet(t.ID, sh)
	c := fleet.NewChurn(f, pol)
	c.Retry = fleet.RetryPolicy{MaxAttempts: sh.RetryAttempts, BackoffEpochs: sh.RetryBackoffEpochs}
	// Terminally-finished sessions flow back into the source's free
	// list: results hold counts and measurements, never *Session, so a
	// million-arrival sweep allocates O(peak concurrent), not O(total).
	c.Pool = src

	// Fault schedule: like the arrival schedule, derived from the
	// stream base and the fault parameters only — never the key-derived
	// unit seed — so a drop-on-failure vs retry/degrade comparison (and
	// every policy/migration variant) crashes the identical machines at
	// the identical epochs, and the delta is the recovery's doing.
	var timeline [][]fleet.MachineState
	if sh.Faulty() {
		faultKey := fmt.Sprintf("fleet/faults|mtbf=%g|mttr=%g|m=%d|epochs=%d",
			sh.MTBFEpochs, sh.MTTREpochs, len(f.Machines), sh.Epochs)
		tl, ferr := fleet.FaultStream(len(f.Machines), sh.MTBFEpochs, sh.MTTREpochs,
			sh.Epochs, exp.DeriveSeed(streamBase, faultKey, u.Rep))
		if ferr != nil {
			panic(fmt.Sprintf("core: churn trial %q: %v", t.ID, ferr))
		}
		timeline = tl
	}

	out := &ChurnResult{
		Policy:     pol.Name(),
		Mix:        string(sh.Mix),
		Migrate:    sh.Migrate,
		Faulty:     sh.Faulty(),
		Retry:      sh.RetryAttempts > 0,
		Degrade:    sh.Degrade,
		Epochs:     make([]EpochResult, 0, sh.Epochs),
		RepsMerged: 1,
	}
	if out.Mix == "" {
		out.Mix = string(fleet.MixSuite)
	}
	// Offered session-epochs — the availability denominator — are
	// accumulated incrementally by the portal as each arrival is
	// offered: a pure function of the stream (horizon-clipped wanted
	// epochs, admitted or not), so every variant still shares it, and a
	// streamed run never materializes the schedule to compute it.
	sink, streaming := resolveChurnSink(t.Sink, sh.RollupOnly, u.Rep, u.Seed, out)

	// Assemble the portal and run its epoch loop. The fidelity
	// split normalizes here: without SurrogateTail every machine runs
	// full fidelity; with it, machines [0, sampled) stay full and the
	// tail runs the calibrated surrogate (sampled clamps to the fleet).
	portal := &churnPortal{
		t: t, sh: sh, u: u, streamBase: streamBase,
		c: c, f: f, src: src, timeline: timeline,
		sink: sink, streaming: streaming,
		sampled:    len(f.Machines),
		out:        out,
		machineRTT: make([]stats.Summary, len(f.Machines)),
	}
	portal.full = &fullEngine{p: portal}
	if sh.SurrogateTail {
		portal.sampled = sh.FidelitySampled
		if portal.sampled < 0 {
			portal.sampled = 0
		}
		if portal.sampled > len(f.Machines) {
			portal.sampled = len(f.Machines)
		}
		portal.surrogate = newSurrogateEngine(portal, suite, src.Catalog())
	}
	portal.run()

	out.Lost = c.Lost
	if out.OfferedSessionEpochs > 0 {
		out.Availability = float64(out.CompliantSessionEpochs) / float64(out.OfferedSessionEpochs)
	}
	if streaming {
		// Streaming runs never hold the per-observation summary list
		// (it grows with total executed session-epochs); the horizon
		// RTT pools the per-epoch pooled summaries instead — a
		// documented epoch-weighted approximation of the per-
		// observation pooling the in-memory path keeps.
		out.RTT = exp.PoolSummaries(portal.rollupRTTs)
	} else {
		out.RTT = exp.PoolSummaries(portal.allRTTs)
	}
	return out
}

// mergeChurn folds a churn trial's repetitions: scalar rollups average,
// RTT distributions pool, and — unlike mergeFleet's per-machine rows —
// the per-epoch rows aggregate too, because the horizon is part of the
// shape and epochs therefore align across repetitions.
func mergeChurn(reps []TrialResult) ChurnResult {
	out := *reps[0].Churn
	out.RepsMerged = len(reps)
	out.Epochs = append([]EpochResult(nil), out.Epochs...)
	if len(reps) == 1 {
		return out
	}
	inv := 1 / float64(len(reps))
	roundMean := func(f func(ChurnResult) int) int {
		sum := 0.0
		for _, r := range reps {
			sum += float64(f(*r.Churn)) * inv
		}
		return int(sum + 0.5)
	}
	out.Arrivals = roundMean(func(r ChurnResult) int { return r.Arrivals })
	out.Departures = roundMean(func(r ChurnResult) int { return r.Departures })
	out.Migrations = roundMean(func(r ChurnResult) int { return r.Migrations })
	out.Rejected = roundMean(func(r ChurnResult) int { return r.Rejected })
	out.QoSViolations = roundMean(func(r ChurnResult) int { return r.QoSViolations })
	out.Crashes = roundMean(func(r ChurnResult) int { return r.Crashes })
	out.Evicted = roundMean(func(r ChurnResult) int { return r.Evicted })
	out.Retried = roundMean(func(r ChurnResult) int { return r.Retried })
	out.Recovered = roundMean(func(r ChurnResult) int { return r.Recovered })
	out.Lost = roundMean(func(r ChurnResult) int { return r.Lost })
	out.DegradedSessionEpochs = roundMean(func(r ChurnResult) int { return r.DegradedSessionEpochs })
	out.OfferedSessionEpochs = roundMean(func(r ChurnResult) int { return r.OfferedSessionEpochs })
	out.CompliantSessionEpochs = roundMean(func(r ChurnResult) int { return r.CompliantSessionEpochs })
	out.MeanActive, out.MeanPowerWatts, out.Availability = 0, 0, 0
	rtts := make([]stats.Summary, 0, len(reps))
	for _, r := range reps {
		out.MeanActive += r.Churn.MeanActive * inv
		out.MeanPowerWatts += r.Churn.MeanPowerWatts * inv
		out.Availability += r.Churn.Availability * inv
		if r.Churn.RTT.N > 0 {
			rtts = append(rtts, r.Churn.RTT)
		}
	}
	out.RTT = exp.PoolSummaries(rtts)

	for ei := range out.Epochs {
		e := EpochResult{Epoch: ei}
		sums := struct{ arr, dep, mig, rej, act, off, crash, evict, retry, rec, degr, qos, watts float64 }{}
		ertts := make([]stats.Summary, 0, len(reps))
		for _, r := range reps {
			re := r.Churn.Epochs[ei]
			sums.arr += float64(re.Arrivals) * inv
			sums.off += float64(re.OfferedSessionEpochs) * inv
			sums.dep += float64(re.Departures) * inv
			sums.mig += float64(re.Migrations) * inv
			sums.rej += float64(re.Rejected) * inv
			sums.act += float64(re.Active) * inv
			sums.crash += float64(re.Crashes) * inv
			sums.evict += float64(re.Evicted) * inv
			sums.retry += float64(re.Retried) * inv
			sums.rec += float64(re.Recovered) * inv
			sums.degr += float64(re.Degraded) * inv
			sums.qos += float64(re.QoSViolations) * inv
			sums.watts += re.PowerWatts * inv
			if re.RTT.N > 0 {
				ertts = append(ertts, re.RTT)
			}
		}
		e.Arrivals = int(sums.arr + 0.5)
		e.Departures = int(sums.dep + 0.5)
		e.Migrations = int(sums.mig + 0.5)
		e.Rejected = int(sums.rej + 0.5)
		e.Active = int(sums.act + 0.5)
		e.OfferedSessionEpochs = int(sums.off + 0.5)
		e.Crashes = int(sums.crash + 0.5)
		e.Evicted = int(sums.evict + 0.5)
		e.Retried = int(sums.retry + 0.5)
		e.Recovered = int(sums.rec + 0.5)
		e.Degraded = int(sums.degr + 0.5)
		e.QoSViolations = int(sums.qos + 0.5)
		e.PowerWatts = sums.watts
		e.RTT = exp.PoolSummaries(ertts)
		// Occupancy rows keep the first repetition's snapshot: the rows
		// are a placement trace (who sat where, at what tier), and
		// averaging placements across independently-seeded repetitions
		// would blur machine identities into meaningless fractions.
		e.Occupancy = out.Epochs[ei].Occupancy
		out.Epochs[ei] = e
	}
	return out
}

// churnTrial builds the runner trial for a churn shape with the
// config's windows and pinned seed.
func churnTrial(shape exp.FleetShape, cfg ExperimentConfig) exp.Trial {
	t := exp.FleetTrial(shape)
	t.Warmup, t.Measure, t.Seed = cfg.WarmupSeconds, cfg.Seconds, cfg.Seed
	pol := shape.Policy
	if pol == "" {
		pol = fleet.PolicyRoundRobin
	}
	mix := shape.Mix
	if mix == "" {
		mix = string(fleet.MixSuite)
	}
	mode := churnMode(shape.Migrate, shape.Faulty(), shape.RetryAttempts > 0, shape.Degrade)
	t.ID = fmt.Sprintf("churn/%s/%s/m%d×e%d/%s", pol, mix, shape.Machines, shape.Epochs, mode)
	return t
}

// churnMode names a churn variant by its knobs, as churnTrial's ID
// suffix and ChurnComparisonTable's mode column both print it:
// placement mode first, then the robustness knobs that are on.
func churnMode(migrate, faulty, retry, degrade bool) string {
	mode := "static"
	if migrate {
		mode = "migrate"
	}
	if faulty {
		mode += "+faults"
	}
	if retry {
		mode += "+retry"
	}
	if degrade {
		mode += "+degrade"
	}
	return mode
}

// RunFleetChurn drives the shape's fleet through its churn horizon —
// Poisson arrivals, exponential session departures and (when enabled)
// RTT-driven migration — reporting per-epoch QoS, migration and power
// rows plus horizon rollups. With cfg.Reps > 1 both the rollups and the
// per-epoch rows aggregate across derived seeds (see mergeChurn).
// Invalid policy, mix, core-class or churn parameters panic immediately
// (the vocabulary is fixed — see validateFleetShape).
func RunFleetChurn(shape exp.FleetShape, cfg ExperimentConfig) ChurnResult {
	if !shape.Churn() {
		panic(fmt.Sprintf("core: RunFleetChurn needs a churn shape (Epochs >= 1, got %d); use RunFleetConsolidation for one-shot admission", shape.Epochs))
	}
	validateFleetShape(shape)
	return mergeChurn(RunTrials([]exp.Trial{churnTrial(shape, cfg)}, cfg)[0])
}

// churnComparisonTrials is the "churn" kind's trial batch — static
// placement (no migration) and with the migration controller, over the
// identical tenant population (the arrival schedule is derived from the
// config seed and the schedule parameters only), so the delta is the
// controller's doing, not stream luck.
func churnComparisonTrials(shape exp.FleetShape, cfg ExperimentConfig) []exp.Trial {
	static, migrated := shape, shape
	static.Migrate = false
	migrated.Migrate = true
	return []exp.Trial{churnTrial(static, cfg), churnTrial(migrated, cfg)}
}

// faultComparisonTrials is the "faults" kind's trial batch. It answers
// the robustness question — under the same deterministic failure
// schedule, what do failover and graceful degradation buy? — by running
// the shape three ways:
//
//  1. healthy — the shape with faults, failover and degradation all
//     stripped (the no-crash baseline),
//  2. faulty/drop — the failure schedule with the historical
//     drop-on-failure behaviour (no retries, no tiers),
//  3. faulty/resilient — the same failure schedule with the shape's
//     failover and degradation knobs (defaults fill in when the shape
//     enables faults but sets neither: 3 retry attempts at backoff 1,
//     brown-out tiers on).
//
// All three churn the identical tenant population and execution noise,
// and both faulty runs crash the identical machines at the identical
// epochs (the arrival and fault schedules derive from the config seed
// and their own parameters only — see executeFleetChurn), so the
// availability deltas are the recovery mechanisms' doing, not stream
// luck.
func faultComparisonTrials(shape exp.FleetShape, cfg ExperimentConfig) []exp.Trial {
	healthy := shape
	healthy.MTBFEpochs, healthy.MTTREpochs = 0, 0
	healthy.RetryAttempts, healthy.RetryBackoffEpochs = 0, 0
	healthy.Degrade = false

	drop := shape
	drop.RetryAttempts, drop.RetryBackoffEpochs = 0, 0
	drop.Degrade = false

	resilient := shape
	if resilient.RetryAttempts <= 0 && !resilient.Degrade {
		resilient.RetryAttempts = 3
		resilient.RetryBackoffEpochs = 1
		resilient.Degrade = true
	}

	return []exp.Trial{
		churnTrial(healthy, cfg),
		churnTrial(drop, cfg),
		churnTrial(resilient, cfg),
	}
}

// ChurnTable renders one churn outcome as per-epoch rows — session
// lifecycle (admission loss included: rejected, crash/evict, failover
// retries and recoveries, brown-out gauge), QoS violations,
// interactivity and fleet power — followed by the horizon rollup line
// with the availability metric, so loss is visible, not write-only
// bookkeeping.
func ChurnTable(r ChurnResult) string {
	t := stats.NewTable("epoch", "active", "arrive", "depart", "migrate", "reject",
		"crash", "evict", "retry", "recover", "degraded",
		"QoS-viol", "RTT mean", "RTT p99", "fleet W")
	for _, e := range r.Epochs {
		t.Row(
			fmt.Sprintf("%d", e.Epoch),
			fmt.Sprintf("%d", e.Active),
			fmt.Sprintf("%d", e.Arrivals),
			fmt.Sprintf("%d", e.Departures),
			fmt.Sprintf("%d", e.Migrations),
			fmt.Sprintf("%d", e.Rejected),
			fmt.Sprintf("%d", e.Crashes),
			fmt.Sprintf("%d", e.Evicted),
			fmt.Sprintf("%d", e.Retried),
			fmt.Sprintf("%d", e.Recovered),
			fmt.Sprintf("%d", e.Degraded),
			fmt.Sprintf("%d", e.QoSViolations),
			fmt.Sprintf("%.1f ms", e.RTT.Mean),
			fmt.Sprintf("%.1f ms", e.RTT.P99),
			fmt.Sprintf("%.1f", e.PowerWatts))
	}
	return t.String() + fmt.Sprintf(
		"availability %.1f%% (%d/%d compliant session-epochs) · rejected %d · retried %d · recovered %d · lost %d\n",
		100*r.Availability, r.CompliantSessionEpochs, r.OfferedSessionEpochs,
		r.Rejected, r.Retried, r.Recovered, r.Lost)
}

// OccupancyTable renders the per-(machine, epoch) occupancy rows of a
// churn result recorded with OccupancyDetail — the textual form of the
// placement heatmap: one row per machine-epoch with state, residency,
// fidelity tier and measurements. Empty when the shape did not opt in.
func OccupancyTable(r ChurnResult) string {
	t := stats.NewTable("epoch", "machine", "state", "residents", "degraded",
		"demand", "tier", "RTT mean", "W")
	for _, e := range r.Epochs {
		for _, o := range e.Occupancy {
			state := "up"
			switch o.State {
			case fleet.MachineDown:
				state = "down"
			case fleet.MachineCold:
				state = "cold"
			}
			tier := "full"
			if o.Surrogate {
				tier = "surrogate"
			}
			t.Row(
				fmt.Sprintf("%d", e.Epoch),
				fmt.Sprintf("%d", o.Machine),
				state,
				fmt.Sprintf("%d", o.Residents),
				fmt.Sprintf("%d", o.Degraded),
				fmt.Sprintf("%.2f", o.Demand),
				tier,
				fmt.Sprintf("%.1f ms", o.RTTMean),
				fmt.Sprintf("%.1f", o.PowerWatts))
		}
	}
	return t.String()
}

// ChurnComparisonTable renders churn outcomes side by side (one row per
// variant: static vs migrate, drop-on-failure vs retry/degrade) — the
// "does the controller pay" table, with the availability headline.
func ChurnComparisonTable(rs []ChurnResult) string {
	t := stats.NewTable("mode", "arrivals", "rejected", "migrations", "crashes",
		"evicted", "retried", "recovered", "lost", "QoS-viol", "avail",
		"RTT mean", "RTT p99", "mean W")
	for _, r := range rs {
		t.Row(churnMode(r.Migrate, r.Faulty, r.Retry, r.Degrade),
			fmt.Sprintf("%d", r.Arrivals),
			fmt.Sprintf("%d", r.Rejected),
			fmt.Sprintf("%d", r.Migrations),
			fmt.Sprintf("%d", r.Crashes),
			fmt.Sprintf("%d", r.Evicted),
			fmt.Sprintf("%d", r.Retried),
			fmt.Sprintf("%d", r.Recovered),
			fmt.Sprintf("%d", r.Lost),
			fmt.Sprintf("%d", r.QoSViolations),
			fmt.Sprintf("%.1f%%", 100*r.Availability),
			fmt.Sprintf("%.1f ms", r.RTT.Mean),
			fmt.Sprintf("%.1f ms", r.RTT.P99),
			fmt.Sprintf("%.1f", r.MeanPowerWatts))
	}
	return t.String()
}
