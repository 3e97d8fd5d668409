package core

import (
	"fmt"
	"math"
	"strings"

	"pictor/internal/app"
	"pictor/internal/exp"
	"pictor/internal/fleet"
)

// Experiment-spec kinds: the comparison batches a spec can request.
const (
	// SpecGrid runs the paper's complete evaluation grid.
	SpecGrid = "grid"
	// SpecFleet consolidates a request stream under every placement
	// policy (the fleet comparison).
	SpecFleet = "fleet"
	// SpecChurn runs the static-vs-migrate churn comparison.
	SpecChurn = "churn"
	// SpecFaults runs the healthy/drop/resilient fault comparison.
	SpecFaults = "faults"
)

// SpecKinds lists the valid experiment-spec kinds.
func SpecKinds() []string { return []string{SpecGrid, SpecFleet, SpecChurn, SpecFaults} }

// ExperimentSpec is the declarative experiment vocabulary shared by the
// pictor-bench CLI and the pictor-server control plane: one struct that
// names a comparison batch (Kind) plus its knobs, with one Normalize
// that defaults and validates — so the two frontends cannot drift in
// what they accept or how they lower it onto trials.
//
// Zero fields mean "default" (each kind documents its defaults in
// Normalize); Seed and Migrate are pointers because their zero values
// are meaningful (seed 0 selects per-trial derived seeds, migrate false
// disables the controller), so "unset" must be distinguishable.
type ExperimentSpec struct {
	// Kind selects the comparison batch (see SpecKinds).
	Kind string `json:"kind"`
	// Profiles is the workload selection ("" = the paper's six, "all",
	// or a comma-separated name list — see app.Resolve).
	Profiles string `json:"profiles,omitempty"`
	// Seconds and Warmup are the per-trial simulated windows.
	Seconds float64 `json:"seconds,omitempty"`
	Warmup  float64 `json:"warmup,omitempty"`
	// Seed pins the base simulation seed (nil = 1; explicit 0 switches
	// to per-trial derived seeds).
	Seed *int64 `json:"seed,omitempty"`
	// Reps repeats every trial with derived seeds (0 = 1).
	Reps int `json:"reps,omitempty"`

	// MaxInstances bounds the grid's co-location sweeps (grid only).
	MaxInstances int `json:"maxInstances,omitempty"`

	// Fleet-scope knobs (fleet, churn and faults kinds).
	Machines int    `json:"machines,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Mix      string `json:"mix,omitempty"`
	// Requests is the one-shot stream length (fleet only; 0 = 3 per
	// machine).
	Requests int `json:"requests,omitempty"`
	// CoreClasses is the per-machine core-class list ("8,4", cycled).
	CoreClasses string `json:"cores,omitempty"`

	// Churn knobs (churn and faults kinds).
	Rate     float64 `json:"rate,omitempty"`
	Duration float64 `json:"duration,omitempty"`
	Epochs   int     `json:"epochs,omitempty"`
	Migrate  *bool   `json:"migrate,omitempty"`

	// Arrival-rate schedule knobs (churn and faults kinds). Schedule
	// selects how the Poisson rate varies over the horizon ("" and
	// "constant" keep the flat historical rate; "diurnal" is a
	// sinusoidal day curve; "flash" a spike window — see
	// fleet.Schedules). Peak is the diurnal peak / flash spike rate
	// and Period the day length / spike width in epochs; both apply
	// only under a non-constant schedule.
	Schedule string  `json:"schedule,omitempty"`
	Peak     float64 `json:"peak,omitempty"`
	Period   int     `json:"period,omitempty"`
	// Stream opts the churn results into the aggregate-only streaming
	// sink: per-epoch rows are observed and dropped as epochs close, so
	// a million-session sweep's result holds the horizon rollups in
	// O(machines) memory instead of O(machines × epochs) rows.
	Stream bool `json:"stream,omitempty"`

	// Fault knobs (churn and faults kinds; MTBF/MTTR default on for
	// faults).
	MTBF    float64 `json:"mtbf,omitempty"`
	MTTR    float64 `json:"mttr,omitempty"`
	Retries int     `json:"retries,omitempty"`
	Backoff int     `json:"backoff,omitempty"`
	Degrade bool    `json:"degrade,omitempty"`

	// Fidelity knobs (churn and faults kinds). Fidelity is a pointer
	// because its zero value is meaningful: fidelity 0 runs every
	// machine on the surrogate, nil keeps full per-frame simulation
	// everywhere. A non-nil Fidelity enables the surrogate tail and
	// keeps machines [0, fidelity) on full simulation.
	Fidelity *int `json:"fidelity,omitempty"`
	// Occupancy opts into per-(machine, epoch) occupancy rows in churn
	// results (placement heatmaps; payloads grow with machines×epochs).
	Occupancy bool `json:"occupancy,omitempty"`
}

// specField marks one kind-scoped field as set or unset, so Normalize
// can reject knobs that the requested kind would silently ignore.
type specField struct {
	name string
	set  bool
}

func firstSetField(fields ...specField) string {
	for _, f := range fields {
		if f.set {
			return f.name
		}
	}
	return ""
}

// NormalizeWindows applies the measurement-window rule every frontend
// shares: seconds and warmup must be finite and >= 0, and 0 selects the
// default (45 s measured, DefaultExperimentConfig's warmup). Normalize
// applies it to a spec, and the CLI to its paper experiments' windows,
// before anything runs.
func NormalizeWindows(seconds, warmup float64) (float64, float64, error) {
	// Written so that NaN, which fails every comparison, is rejected.
	if !(seconds >= 0 && warmup >= 0) || math.IsInf(seconds, 1) || math.IsInf(warmup, 1) {
		return seconds, warmup, fmt.Errorf("spec: seconds and warmup must be finite and >= 0, got %g and %g", seconds, warmup)
	}
	if seconds == 0 {
		seconds = 45
	}
	if warmup == 0 {
		warmup = DefaultExperimentConfig().WarmupSeconds
	}
	return seconds, warmup, nil
}

// Normalize validates the spec and fills defaults, returning the
// as-executed spec. It is the one place the experiment vocabulary is
// checked: the CLI calls it before running, the server calls it before
// queueing, and both report its errors verbatim.
//
// Shared defaults: seconds 45, warmup 3, seed 1, reps 1. Fleet scope:
// machines 4, requests 3 per machine (fleet), rate 1.6, duration 5,
// epochs 10, migrate on, retry backoff 1 (churn/faults). The faults
// kind defaults its fault knobs independently — mtbf 5 when unset, mttr
// 1 when unset — and setting mttr without mtbf is an error for every
// kind, never silently ignored or clobbered.
//
// Fields outside the requested kind's scope are rejected, not ignored:
// a "fleet" spec carrying epochs, or a "grid" spec carrying machines,
// is almost certainly a typo, and the executor would run something
// other than what the author believes.
func (s ExperimentSpec) Normalize() (ExperimentSpec, error) {
	s.Kind = strings.ToLower(strings.TrimSpace(s.Kind))
	switch s.Kind {
	case SpecGrid, SpecFleet, SpecChurn, SpecFaults:
	case "":
		return s, fmt.Errorf("spec: kind is required (one of %s)", strings.Join(SpecKinds(), ", "))
	default:
		return s, fmt.Errorf("spec: unknown kind %q (one of %s)", s.Kind, strings.Join(SpecKinds(), ", "))
	}
	if _, err := app.Resolve(s.Profiles); err != nil {
		return s, fmt.Errorf("spec: profiles: %v", err)
	}
	var err error
	if s.Seconds, s.Warmup, err = NormalizeWindows(s.Seconds, s.Warmup); err != nil {
		return s, err
	}
	if s.Seed == nil {
		one := int64(1)
		s.Seed = &one
	}
	if s.Reps < 0 {
		return s, fmt.Errorf("spec: reps must be >= 0, got %d", s.Reps)
	}
	if s.Reps == 0 {
		s.Reps = 1
	}

	// Reject knobs outside the kind's scope before defaulting them.
	fleetScope := []specField{
		{"machines", s.Machines != 0}, {"policy", s.Policy != ""},
		{"mix", s.Mix != ""}, {"requests", s.Requests != 0},
		{"cores", s.CoreClasses != ""},
	}
	churnScope := []specField{
		{"rate", s.Rate != 0}, {"duration", s.Duration != 0},
		{"epochs", s.Epochs != 0}, {"migrate", s.Migrate != nil},
		{"mtbf", s.MTBF != 0}, {"mttr", s.MTTR != 0},
		{"retries", s.Retries != 0}, {"backoff", s.Backoff != 0},
		{"degrade", s.Degrade},
		{"fidelity", s.Fidelity != nil}, {"occupancy", s.Occupancy},
		{"schedule", s.Schedule != ""}, {"peak", s.Peak != 0},
		{"period", s.Period != 0}, {"stream", s.Stream},
	}
	var outOfScope []specField
	switch s.Kind {
	case SpecGrid:
		outOfScope = append(fleetScope, churnScope...)
	case SpecFleet:
		outOfScope = append([]specField{{"maxInstances", s.MaxInstances != 0}}, churnScope...)
	case SpecChurn, SpecFaults:
		outOfScope = []specField{{"maxInstances", s.MaxInstances != 0}, {"requests", s.Requests != 0}}
	}
	if bad := firstSetField(outOfScope...); bad != "" {
		return s, fmt.Errorf("spec: %q does not apply to kind %q", bad, s.Kind)
	}

	if s.Kind == SpecGrid {
		if s.MaxInstances < 0 {
			return s, fmt.Errorf("spec: maxInstances must be >= 0, got %d", s.MaxInstances)
		}
		if s.MaxInstances == 0 {
			s.MaxInstances = DefaultExperimentConfig().MaxInstances
		}
		return s, nil
	}

	// Fleet-scope defaults and validation (fleet, churn, faults).
	if s.Machines < 0 {
		return s, fmt.Errorf("spec: machines must be >= 1, got %d", s.Machines)
	}
	if s.Machines == 0 {
		s.Machines = 4
	}
	if _, err := fleet.NewPolicy(s.Policy, nil); err != nil {
		return s, fmt.Errorf("spec: %v", err)
	}
	if err := fleet.ValidateMix(fleet.Mix(s.Mix)); err != nil {
		return s, fmt.Errorf("spec: %v", err)
	}
	if _, err := fleet.ParseCoreClasses(s.CoreClasses); err != nil {
		return s, fmt.Errorf("spec: cores: %v", err)
	}

	if s.Kind == SpecFleet {
		if s.Requests < 0 {
			return s, fmt.Errorf("spec: requests must be >= 1 (or 0 for the 3-per-machine default), got %d", s.Requests)
		}
		if s.Requests == 0 {
			s.Requests = 3 * s.Machines
		}
		return s, nil
	}

	// Churn defaults and validation (churn, faults).
	if s.Rate == 0 {
		s.Rate = 1.6
	}
	if s.Duration == 0 {
		s.Duration = 5
	}
	if s.Epochs == 0 {
		s.Epochs = 10
	}
	if s.Migrate == nil {
		on := true
		s.Migrate = &on
	}
	if err := fleet.ValidateChurnParams(s.Rate, s.Duration, s.Epochs); err != nil {
		return s, fmt.Errorf("spec: rate/duration/epochs: %v", err)
	}
	// Rate-schedule knobs. A peak or period under a constant schedule
	// would be silently ignored by the arrival source — reject it, like
	// mttr without mtbf, instead of letting the author believe the rate
	// bends.
	if scheduled := s.Schedule != "" && s.Schedule != fleet.ScheduleConstant; !scheduled && (s.Peak != 0 || s.Period != 0) {
		return s, fmt.Errorf("spec: peak (%g) / period (%d) set without a non-constant schedule — set schedule to %q or %q", s.Peak, s.Period, fleet.ScheduleDiurnal, fleet.ScheduleFlash)
	}
	if err := fleet.ValidateSchedule(s.Schedule, s.Rate, s.Peak, s.Period); err != nil {
		return s, fmt.Errorf("spec: %v", err)
	}
	// Fault knobs. A repair time without a failure process would be
	// silently ignored by the executor — reject it instead of letting
	// the author believe faults are on.
	if s.MTBF == 0 && s.MTTR != 0 {
		return s, fmt.Errorf("spec: mttr (%g) set without mtbf — set mtbf > 0 to enable fault injection", s.MTTR)
	}
	if s.Kind == SpecFaults {
		// The experiment is about faults: each knob defaults
		// independently, so an explicit mttr (or mtbf) survives.
		if s.MTBF == 0 {
			s.MTBF = 5
		}
		if s.MTTR == 0 {
			s.MTTR = 1
		}
	}
	if err := fleet.ValidateFaultParams(s.MTBF, s.MTTR); err != nil {
		return s, fmt.Errorf("spec: mtbf/mttr: %v", err)
	}
	if s.Retries < 0 || s.Backoff < 0 {
		return s, fmt.Errorf("spec: retries and backoff must be >= 0, got %d and %d", s.Retries, s.Backoff)
	}
	if s.Backoff == 0 {
		s.Backoff = 1
	}
	// Fidelity tiers: a set fidelity names the full-simulation cohort
	// size, so it cannot exceed the fleet.
	if s.Fidelity != nil && (*s.Fidelity < 0 || *s.Fidelity > s.Machines) {
		return s, fmt.Errorf("spec: fidelity must be in [0, machines] (= [0, %d]), got %d", s.Machines, *s.Fidelity)
	}
	return s, nil
}

// Config lowers a normalized spec onto the runner configuration.
// Parallel is execution policy, not part of the spec — the caller sets
// it (the server from its own flag, the CLI from -parallel).
func (s ExperimentSpec) Config() ExperimentConfig {
	seed := int64(1)
	if s.Seed != nil {
		seed = *s.Seed
	}
	return ExperimentConfig{
		WarmupSeconds: s.Warmup,
		Seconds:       s.Seconds,
		Seed:          seed,
		MaxInstances:  s.MaxInstances,
		Reps:          s.Reps,
		Profiles:      s.Profiles,
	}
}

// Shape lowers a normalized fleet/churn/faults spec onto the trial
// vocabulary. Zero-valued for grid specs (the grid has no fleet shape).
func (s ExperimentSpec) Shape() exp.FleetShape {
	sh := exp.FleetShape{
		Machines:    s.Machines,
		Policy:      s.Policy,
		Mix:         s.Mix,
		Profiles:    s.Profiles,
		CoreClasses: s.CoreClasses,
	}
	switch s.Kind {
	case SpecFleet:
		sh.Requests = s.Requests
	case SpecChurn, SpecFaults:
		sh.Epochs = s.Epochs
		sh.ArrivalRate = s.Rate
		sh.MeanSessionEpochs = s.Duration
		sh.Migrate = s.Migrate != nil && *s.Migrate
		sh.MTBFEpochs = s.MTBF
		sh.MTTREpochs = s.MTTR
		sh.RetryAttempts = s.Retries
		sh.RetryBackoffEpochs = s.Backoff
		sh.Degrade = s.Degrade
		if s.Fidelity != nil {
			sh.SurrogateTail = true
			sh.FidelitySampled = *s.Fidelity
		}
		sh.OccupancyDetail = s.Occupancy
		sh.RateSchedule = s.Schedule
		sh.PeakRate = s.Peak
		sh.PeriodEpochs = s.Period
		sh.RollupOnly = s.Stream
	}
	return sh
}

// Trials lowers a normalized spec onto its comparison batch: the full
// evaluation grid, one trial per placement policy (fleet), {static,
// migrated} (churn), or {healthy, drop, resilient} (faults). RunSpec
// runs this batch, and the benchmark server runs it unit by unit. Call
// Normalize first — Trials assumes a validated spec and panics on an
// invalid one.
func (s ExperimentSpec) Trials() []exp.Trial {
	cfg := s.Config()
	var batch func(exp.FleetShape, ExperimentConfig) []exp.Trial
	switch s.Kind {
	case SpecGrid:
		return SuiteGridTrials(cfg)
	case SpecFleet:
		batch = fleetComparisonTrials
	case SpecChurn:
		batch = churnComparisonTrials
	case SpecFaults:
		batch = faultComparisonTrials
	default:
		panic(fmt.Sprintf("core: unknown spec kind %q (normalize first)", s.Kind))
	}
	shape := s.Shape()
	validateFleetShape(shape)
	return batch(shape, cfg)
}
