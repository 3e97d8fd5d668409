// Package exp is Pictor's experiment engine: a declarative trial
// specification plus a parallel runner.
//
// The paper's evaluation is a large grid of independent benchmark
// sessions — every figure and table is some slice of {benchmark ×
// driver × instance count × interposer × container × tracing} — and
// each session owns a private simulation kernel and seeded RNG, so the
// grid is embarrassingly parallel. This package turns "an experiment"
// into data: a Trial says *what* to run, the Runner decides *how* —
// sharding trials across a worker pool, deriving a deterministic seed
// for every (trial, repetition) unit, and collecting results in input
// order so output is byte-identical at any parallelism level.
//
// The package deliberately does not know how to build a cluster: the
// executor is injected (see internal/core.ExecuteTrial), which keeps
// exp a leaf that the assembly layer can depend on.
package exp

import (
	"fmt"

	"pictor/internal/app"
	"pictor/internal/fleet"
	"pictor/internal/vgl"
)

// DriverKind names a client driver declaratively, so a Trial can be
// pure data. The executor maps kinds onto concrete drivers (and trains
// the intelligent client's models on first use).
type DriverKind int

const (
	// DriverNone leaves the instance undriven (no inputs).
	DriverNone DriverKind = iota
	// DriverHuman is the reference human policy.
	DriverHuman
	// DriverIC is Pictor's CNN+LSTM intelligent client.
	DriverIC
	// DriverDeskBench replays a recorded human session (record-replay
	// baseline).
	DriverDeskBench
	// DriverSlowMotion paces the intelligent client one input at a time
	// (use with app.ModeSlowMotion).
	DriverSlowMotion
)

// String implements fmt.Stringer for labels and trial keys.
func (d DriverKind) String() string {
	switch d {
	case DriverNone:
		return "none"
	case DriverHuman:
		return "human"
	case DriverIC:
		return "ic"
	case DriverDeskBench:
		return "deskbench"
	case DriverSlowMotion:
		return "slowmotion"
	}
	return fmt.Sprintf("driver(%d)", int(d))
}

// InstanceSpec describes one benchmark instance of a trial.
type InstanceSpec struct {
	Profile app.Profile
	Driver  DriverKind
	// Mode selects the pipeline discipline (normal vs slow-motion).
	Mode app.Mode
	// TracingOff disables the analysis framework (the zero value keeps
	// it on, matching the standard setup).
	TracingOff bool
	// Interposer selects frame-copy behaviour. The zero value means
	// "the baseline default" (vgl.DefaultOptions), so specs stay
	// terse; a partially-set value (e.g. only optimization flags)
	// inherits the baseline's cost parameters — see
	// CanonicalInterposer. Note QueryDoubleBuffer is taken literally
	// on any nonzero value: set it explicitly when customizing.
	Interposer vgl.Options
	// Containerized wraps the instance in the Docker-like overhead
	// model.
	Containerized bool
}

// FleetShape turns a trial into a multi-server consolidation scenario:
// Requests instance requests drawn from the named arrival Mix are
// placed across Machines servers by the named placement Policy, and
// every machine runs as its own cluster inside the one execution unit.
// Names (not concrete policies) keep the shape pure data, so fleet
// sweeps run on the same deterministic parallel runner as everything
// else; internal/fleet owns the vocabulary and internal/core lowers the
// shape onto real clusters.
type FleetShape struct {
	// Machines is the server count (< 1 executes as 1).
	Machines int
	// Policy is the placement policy name (see fleet.PolicyNames); ""
	// means round-robin.
	Policy string
	// Mix is the arrival-mix name (see fleet.Mixes); "" means the
	// suite cycled in paper order.
	Mix string
	// Profiles selects the workload set the arrival mix draws from: a
	// comma-separated list of registered profile names ("STK,CAD,VV"),
	// "all" for every registered profile, or "" for the paper's six
	// (see app.Resolve). It serializes into Key() only when set, so
	// every pre-registry shape keeps its exact historical key, seeds
	// and fixtures.
	Profiles string
	// Requests is the one-shot instance-request stream length. It must
	// be >= 1 for non-churn shapes (the executor rejects non-positive
	// streams rather than silently running one request) and is ignored
	// when the shape churns — arrivals come from the Poisson process.
	Requests int
	// MachineCores is each server's core count; <= 0 means the paper
	// testbed's 8. CoreClasses, when set, wins.
	MachineCores int
	// CoreClasses makes the fleet heterogeneous: a comma-separated
	// per-machine core-class list (e.g. "8,4"), cycled across machines
	// (see fleet.ParseCoreClasses). "" keeps every machine at
	// MachineCores.
	CoreClasses string

	// Churn fields: a shape with Epochs > 0 runs as an epoch-based
	// churn simulation (Poisson arrivals, exponential sessions,
	// optional RTT-driven migration) instead of one-shot admission.

	// Epochs is the churn horizon (number of place→execute→measure→
	// migrate rounds); 0 selects the one-shot admission path.
	Epochs int
	// ArrivalRate is the mean Poisson arrival count per epoch.
	ArrivalRate float64
	// MeanSessionEpochs is the mean exponential session length, in
	// epochs (rounded up; every session runs at least one epoch).
	MeanSessionEpochs float64
	// Migrate enables the migration controller: machines whose
	// measured mean RTT from the previous epoch exceeds
	// fleet.QoSMaxRTTMs shed their heaviest session to a feasible
	// machine chosen by the placement policy.
	Migrate bool
	// RateSchedule shapes the arrival rate over the horizon (see
	// fleet.Schedules): "" and "constant" are the historical flat
	// Poisson rate — byte-identical draws — while "diurnal" sweeps a
	// sinusoidal day curve from the ArrivalRate trough to PeakRate and
	// back every PeriodEpochs, and "flash" holds the ArrivalRate
	// baseline except for a PeakRate spike window of PeriodEpochs
	// epochs starting at epoch PeriodEpochs. Non-constant schedules
	// serialize into Key() only when set, so every pre-schedule shape
	// keeps its exact historical key, seeds and fixtures.
	RateSchedule string
	// PeakRate is the diurnal peak / flash spike arrival rate; ignored
	// — normalized away — for constant schedules.
	PeakRate float64
	// PeriodEpochs is the diurnal period / flash spike width in
	// epochs; ignored for constant schedules.
	PeriodEpochs int

	// Fault-injection fields: a churn shape with MTBFEpochs > 0 runs a
	// deterministic per-machine crash/repair process (materialized up
	// front like the arrival schedule, see fleet.FaultStream). All of
	// these serialize into Key() only when set, so fault-free shapes
	// keep their exact historical keys, seeds and fixtures.

	// MTBFEpochs is each machine's mean time between failures, in
	// epochs (exponential); 0 disables fault injection.
	MTBFEpochs float64
	// MTTREpochs is the mean repair time, in epochs (exponential,
	// rounded up — every outage lasts at least one epoch, then
	// fleet.ColdStartEpochs of cold start before placements resume).
	// Required (> 0) whenever MTBFEpochs > 0.
	MTTREpochs float64
	// RetryAttempts bounds session failover: evicted and
	// admission-rejected sessions re-enter admission up to this many
	// times with exponential epoch-granularity backoff; 0 keeps the
	// historical drop-on-failure behaviour.
	RetryAttempts int
	// RetryBackoffEpochs is the base failover backoff (attempt k
	// matures RetryBackoffEpochs × 2^(k-1) epochs after the failure);
	// <= 0 executes as 1.
	RetryBackoffEpochs int
	// Degrade enables brown-out quality tiers: machines over the QoS
	// ceiling downgrade their heaviest resident's served resolution to
	// the next tier of the trial's fleet.Catalog (each tier a
	// fleet.DegradedProfile, computed once per trial) before the
	// migration controller — or an eviction — runs, and upgrade back
	// once measured RTT clears fleet.QoSClearRTTMs.
	Degrade bool

	// Fidelity-tier fields: a churn shape with SurrogateTail set runs
	// full per-frame simulation only on a sampled machine cohort and a
	// trained per-profile surrogate everywhere else, trading per-session
	// measurement fidelity for orders of magnitude in sweep size. Both
	// serialize into Key() only when set, so every full-fidelity shape
	// keeps its exact historical key, seeds and fixtures.

	// FidelitySampled is the size of the full-fidelity machine cohort
	// (machines [0, FidelitySampled) run the per-frame simulator) when
	// SurrogateTail is set; it is clamped to [0, Machines] and ignored
	// — normalized away — without SurrogateTail.
	FidelitySampled int
	// SurrogateTail runs every machine outside the sampled cohort on
	// the calibrated surrogate engine instead of full simulation. With
	// FidelitySampled == 0 the whole fleet is surrogate-driven.
	SurrogateTail bool
	// OccupancyDetail records per-(machine, epoch) occupancy rows in
	// the churn result (state, residents, demand, pooled RTT, power) —
	// opt-in because the payload grows with machines × epochs.
	OccupancyDetail bool
	// RollupOnly streams every epoch through the aggregate-only result
	// sink: the churn result carries exact fleet-wide rollup counters
	// and a pooled-per-epoch RTT summary, but no per-epoch rows and no
	// occupancy detail, holding O(machines) memory instead of
	// O(machines × epochs). The simulation itself is unchanged — the
	// knob only bounds what the result retains — but it serializes into
	// Key() when set so a rollup-only result can never answer a cache
	// lookup that expects full rows.
	RollupOnly bool
}

// Churn reports whether the shape runs the epoch-based churn simulation
// rather than one-shot admission.
func (f FleetShape) Churn() bool { return f.Epochs > 0 }

// Faulty reports whether the shape injects machine crashes.
func (f FleetShape) Faulty() bool { return f.MTBFEpochs > 0 }

// Scheduled reports whether the shape's arrival rate varies over the
// horizon — a non-constant RateSchedule. Constant schedules (including
// an explicit "constant") execute, key and seed exactly like the
// historical flat-rate path.
func (f FleetShape) Scheduled() bool {
	return f.RateSchedule != "" && f.RateSchedule != fleet.ScheduleConstant
}

// Trial is one independent benchmark session: some instances co-located
// on one simulated server, run for Warmup+Measure seconds.
type Trial struct {
	// ID is a human label for reports; Key() identifies the spec.
	ID        string
	Instances []InstanceSpec
	// Fleet, when non-nil, makes this a multi-server trial: Instances
	// is ignored and the executor expands the shape's request stream
	// across Machines placed clusters instead.
	Fleet *FleetShape
	// Warmup and Measure are simulated seconds (warmup is discarded).
	Warmup  float64
	Measure float64
	// Seed, when nonzero, pins the first repetition's cluster seed
	// (legacy single-run experiments do this so numbers match the
	// sequential implementation exactly). Further repetitions, and
	// trials with Seed == 0, use DeriveSeed — note 0 therefore means
	// "derive", not "cluster seed zero".
	Seed int64
	// KeepSystem asks the executor to retain the executed system in
	// the trial's result (for estimators that re-read raw traces).
	// Off by default so a large grid only holds measurement snapshots,
	// not every simulated machine. Not part of Key(): retention does
	// not affect the trial's outcome.
	KeepSystem bool
	// Sink, when non-nil, is an executor-defined streaming observer
	// for this trial's per-epoch results (the assembly layer asserts
	// it to its sink interface — see core.ChurnSink). Like KeepSystem
	// it is not part of Key(): observation does not affect the trial's
	// outcome, only where the rows land.
	Sink any
}

// Single is a one-instance trial with the standard setup.
func Single(prof app.Profile, d DriverKind) Trial {
	return Trial{Instances: []InstanceSpec{{Profile: prof, Driver: d}}}
}

// Homogeneous co-locates n identical instances (the §5.2 sweeps).
func Homogeneous(prof app.Profile, d DriverKind, n int) Trial {
	t := Trial{Instances: make([]InstanceSpec, n)}
	for i := range t.Instances {
		t.Instances[i] = InstanceSpec{Profile: prof, Driver: d}
	}
	return t
}

// Pair co-locates two (possibly different) human-driven benchmarks
// (the §5.3 co-location matrix).
func Pair(a, b app.Profile) Trial {
	return Trial{Instances: []InstanceSpec{
		{Profile: a, Driver: DriverHuman},
		{Profile: b, Driver: DriverHuman},
	}}
}

// CanonicalInterposer resolves a spec's interposer options to what the
// executor actually runs: the zero value is the baseline default, and
// a partially-set value (optimization flags without cost parameters)
// inherits the baseline's nonzero copy costs — zero costs would
// silently make frame copies free and inflate every FPS/RTT result.
func CanonicalInterposer(o vgl.Options) vgl.Options {
	if o == (vgl.Options{}) {
		return vgl.DefaultOptions()
	}
	def := vgl.DefaultOptions()
	if o.MemcpyMsPerMB <= 0 {
		o.MemcpyMsPerMB = def.MemcpyMsPerMB
	}
	if o.ReadDriverMs <= 0 {
		o.ReadDriverMs = def.ReadDriverMs
	}
	return o
}

// Key serializes everything that affects a trial's outcome into a
// stable string. Equal keys mean equal trials: grid builders use keys
// to deduplicate shared baselines, and the runner hashes the key into
// the per-repetition seed, so a trial's seeds do not change when
// unrelated trials are added to or removed from a grid. Interposer
// options are serialized in canonical (as-executed) form, so a terse
// spec and an explicit-default spec share a key.
func (t Trial) Key() string {
	key := fmt.Sprintf("w=%g;m=%g;s=%d", t.Warmup, t.Measure, t.Seed)
	if t.Fleet != nil {
		f := *t.Fleet
		key += fmt.Sprintf("|fleet:n=%d:pol=%s:mix=%s:req=%d:cores=%d",
			f.Machines, f.Policy, f.Mix, f.Requests, f.MachineCores)
		// Heterogeneity, workload subset and churn serialize only when
		// set, so every pre-churn, pre-registry shape keeps its exact
		// historical key (and therefore its derived per-rep seeds and
		// golden fixtures).
		if f.CoreClasses != "" {
			key += fmt.Sprintf(":classes=%s", f.CoreClasses)
		}
		if f.Profiles != "" {
			key += fmt.Sprintf(":profiles=%s", f.Profiles)
		}
		if f.Churn() {
			key += fmt.Sprintf(":churn=e%d:rate=%g:dur=%g:mig=%t",
				f.Epochs, f.ArrivalRate, f.MeanSessionEpochs, f.Migrate)
		}
		// A non-constant rate schedule serializes only when set — a
		// constant schedule (implicit or explicit) is the historical
		// flat-rate trial, same key, same seeds, same fixtures.
		if f.Scheduled() {
			key += fmt.Sprintf(":sched=%s:peak=%g:period=%d",
				f.RateSchedule, f.PeakRate, f.PeriodEpochs)
		}
		// Fault injection, failover and degradation likewise serialize
		// only when enabled, keeping every fault-free key historical.
		if f.Faulty() {
			key += fmt.Sprintf(":faults=mtbf%g:mttr%g", f.MTBFEpochs, f.MTTREpochs)
		}
		if f.RetryAttempts > 0 {
			key += fmt.Sprintf(":retry=%d:backoff=%d", f.RetryAttempts, f.RetryBackoffEpochs)
		}
		if f.Degrade {
			key += ":degrade=true"
		}
		// Fidelity tiers and occupancy detail serialize only when set:
		// a full-fidelity, rollup-only shape keeps its historical key.
		if f.SurrogateTail {
			key += fmt.Sprintf(":fidelity=%d:surrogate=true", f.FidelitySampled)
		}
		if f.OccupancyDetail {
			key += ":occupancy=true"
		}
		// RollupOnly changes what the result retains (rollups, no rows),
		// so it must key distinctly — a cache hit across the two modes
		// would hand a rows-expecting caller a rowless result.
		if f.RollupOnly {
			key += ":rollup=true"
		}
		return key
	}
	for _, is := range t.Instances {
		key += fmt.Sprintf("|%s:%s:mode=%d:troff=%t:ip=%+v:ct=%t",
			is.Profile.Name, is.Driver, int(is.Mode), is.TracingOff,
			CanonicalInterposer(is.Interposer), is.Containerized)
	}
	return key
}

// FleetTrial is a multi-server trial with the given shape.
func FleetTrial(shape FleetShape) Trial {
	s := shape
	return Trial{Fleet: &s}
}
