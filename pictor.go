// Package pictor is a benchmarking framework for interactive 3D
// applications in the cloud — a faithful, simulation-based reproduction
// of "A Benchmarking Framework for Interactive 3D Applications in the
// Cloud" (Liu et al., MICRO 2020, arXiv:2006.13378).
//
// Pictor has two halves, mirroring the paper:
//
//   - An intelligent client framework: a CNN recognizes the objects in
//     each frame streamed to the client and an LSTM generates
//     human-like inputs from them, so benchmarks can be driven
//     reliably even when scenes are random. Both networks are real
//     (pure-Go, trained from recorded sessions), not stubs.
//   - A performance analysis framework: inputs are tagged at the client
//     proxy and tracked through every pipeline stage (network, server
//     proxy, X event queue, application logic, GPU render, PCIe frame
//     copy, compression, network again) via API hooks, yielding exact
//     round-trip times, per-stage latencies, FPS, utilization, PMU
//     counters and power.
//
// Because this repository has no GPUs, games or client fleet, the whole
// cloud rendering system of the paper's Figure 1 — TurboVNC-style
// proxies, a VirtualGL-style interposer, X11/OpenGL layers, a GPU with
// shared caches, PCIe, a multi-core server and per-instance networks —
// runs as a deterministic discrete-event simulation. README.md
// describes each subsystem and how to run it; EXPERIMENTS.md, generated
// from the pictor-bench CLI, lists every experiment mode, one for each of
// the paper's figures and tables plus the fleet-scale extensions.
//
// # Quick start
//
//	cluster := pictor.NewCluster(pictor.Options{Seed: 1})
//	cluster.AddInstance(pictor.NewInstanceConfig(pictor.SuiteByName("STK"), pictor.HumanDriver()))
//	cluster.RunSeconds(3, 60)
//	res := cluster.Results()[0]
//	fmt.Printf("server %.1f fps, client %.1f fps, RTT %.1f ms\n",
//		res.ServerFPS, res.ClientFPS, res.RTT.Mean)
package pictor

import (
	"pictor/internal/app"
	"pictor/internal/container"
	"pictor/internal/core"
	"pictor/internal/exp"
	"pictor/internal/fleet"
	"pictor/internal/sim"
	"pictor/internal/vgl"
)

// Re-exported configuration types. See the internal packages for the
// full documentation of each field.
type (
	// Options configures a simulated server machine.
	Options = core.Options
	// InstanceConfig configures one benchmark instance.
	InstanceConfig = core.InstanceConfig
	// Profile is a benchmark's complete behavioural description.
	Profile = app.Profile
	// InstanceResult is one instance's measurements after a run.
	InstanceResult = core.InstanceResult
	// MethodologyResult is one Figure-6/Table-3 row.
	MethodologyResult = core.MethodologyResult
	// OptimizationResult is one Figure-22 row.
	OptimizationResult = core.OptimizationResult
	// ContainerResult is one Figure-20 row.
	ContainerResult = core.ContainerResult
	// OverheadResult is one §4 framework-overhead row.
	OverheadResult = core.OverheadResult
	// ExperimentConfig bounds experiment cost and selects the runner's
	// parallelism (Parallel) and repetition count (Reps).
	ExperimentConfig = core.ExperimentConfig
	// DriverFactory builds a client driver for an instance.
	DriverFactory = core.DriverFactory
	// DriverKind names a client driver declaratively for experiment
	// trials (Human, IC, DeskBench, SlowMotion).
	DriverKind = exp.DriverKind
	// Trial is one declarative benchmark session for the runner.
	Trial = exp.Trial
	// InstanceSpec describes one benchmark instance of a Trial.
	InstanceSpec = exp.InstanceSpec
	// TrialResult is one executed trial's measurement bundle.
	TrialResult = core.TrialResult
	// SuiteGridResult is the full paper evaluation in one value.
	SuiteGridResult = core.SuiteGridResult
	// FleetShape turns a trial into a multi-server consolidation
	// scenario (machines × placement policy × arrival mix).
	FleetShape = exp.FleetShape
	// FleetResult is one multi-server consolidation outcome.
	FleetResult = core.FleetResult
	// MachineResult is one fleet machine's outcome.
	MachineResult = core.MachineResult
	// ChurnResult is one epoch-based fleet-churn outcome (Poisson
	// arrivals, exponential sessions, optional RTT-driven migration).
	ChurnResult = core.ChurnResult
	// EpochResult is one churn epoch's fleet-wide outcome.
	EpochResult = core.EpochResult
	// MachineOccupancy is one machine's epoch snapshot (state,
	// residency, fidelity tier, measurements), recorded when the shape
	// sets OccupancyDetail.
	MachineOccupancy = core.MachineOccupancy
	// TrialPanic reports one (trial, rep) unit that panicked under
	// RunTrialsChecked, carrying the trial's ID, Key() and rep.
	TrialPanic = exp.PanicError
	// ExperimentSpec is the declarative experiment vocabulary shared by
	// the CLI, the benchmark server and RunSpec: one struct naming a
	// comparison kind plus its knobs, validated by Normalize.
	ExperimentSpec = core.ExperimentSpec
	// SpecOutcome is RunSpec's result envelope: the as-executed spec
	// plus the one payload its kind selects.
	SpecOutcome = core.SpecOutcome
	// ChurnSink observes a churn trial's per-epoch results as they
	// close (streaming result API; set it on Trial.Sink).
	ChurnSink = core.ChurnSink
	// ChurnSinkFactory hands out one ChurnSink per execution unit
	// (rep), for observers that keep per-rep streams separate.
	ChurnSinkFactory = core.ChurnSinkFactory
)

// Placement-policy names for FleetShape.Policy.
const (
	PolicyRoundRobin  = fleet.PolicyRoundRobin
	PolicyLeastCount  = fleet.PolicyLeastCount
	PolicyLeastDemand = fleet.PolicyLeastDemand
	PolicyBinPack     = fleet.PolicyBinPack
)

// Arrival-mix names for FleetShape.Mix.
const (
	MixSuite    = string(fleet.MixSuite)
	MixShuffled = string(fleet.MixShuffled)
	MixHeavy    = string(fleet.MixHeavy)
)

// Arrival-rate schedule names for FleetShape.RateSchedule ("" and
// ScheduleConstant keep the flat historical rate).
const (
	ScheduleConstant = fleet.ScheduleConstant
	ScheduleDiurnal  = fleet.ScheduleDiurnal
	ScheduleFlash    = fleet.ScheduleFlash
)

// Schedules lists the arrival-rate schedules in documentation order.
func Schedules() []string { return fleet.Schedules() }

// FleetPolicyNames lists every placement policy in comparison order.
func FleetPolicyNames() []string { return fleet.PolicyNames() }

// Declarative driver kinds for the experiment entry points.
const (
	Human      = exp.DriverHuman
	IC         = exp.DriverIC
	DeskBench  = exp.DriverDeskBench
	SlowMotion = exp.DriverSlowMotion
)

// Cluster is a simulated cloud rendering server with its clients.
type Cluster struct {
	inner *core.Cluster
}

// NewCluster creates a server machine. The zero Options select the
// paper's testbed (8 cores, GTX1080Ti-class GPU, 1 Gbps per-instance
// networks).
func NewCluster(opts Options) *Cluster {
	return &Cluster{inner: core.NewCluster(opts)}
}

// AddInstance places a benchmark instance (application + VNC proxies +
// client) on the server.
func (c *Cluster) AddInstance(cfg InstanceConfig) {
	c.inner.AddInstance(cfg)
}

// RunSeconds simulates warmup (discarded) plus a measurement window.
func (c *Cluster) RunSeconds(warmup, measure float64) {
	c.inner.Run(sim.DurationOfSeconds(warmup), sim.DurationOfSeconds(measure))
}

// Results snapshots every instance's measurements.
func (c *Cluster) Results() []InstanceResult {
	out := make([]InstanceResult, len(c.inner.Instances))
	for i, inst := range c.inner.Instances {
		out[i] = inst.Result()
	}
	return out
}

// TotalPowerWatts reports modelled wall power over the last window.
func (c *Cluster) TotalPowerWatts() float64 { return c.inner.TotalPowerWatts() }

// Suite returns every registered workload profile in stable
// registration order: the paper's six-benchmark suite (Table 2) first —
// SuperTuxKart, 0 A.D., Red Eclipse, Dota2, InMind, IMHOTEP — then the
// extended scenario families (CloudCAD, VoluPlay, CasualZen).
func Suite() []Profile { return app.Suite() }

// PaperSuite returns exactly the paper's six-benchmark suite (Table 2)
// in paper order — the default workload set of every experiment.
func PaperSuite() []Profile { return app.PaperSuite() }

// ProfileNames lists every registered profile's short key in stable
// order (the -profiles / FleetShape.Profiles vocabulary).
func ProfileNames() []string { return app.Names() }

// ResolveProfiles turns a workload spec — "" for the paper six, "all"
// for every registered profile, or a comma-separated name list — into
// concrete profiles, erroring with the registered vocabulary on unknown
// names. Use it to validate ExperimentConfig.Profiles or
// FleetShape.Profiles before running.
func ResolveProfiles(spec string) ([]Profile, error) { return app.Resolve(spec) }

// RegisterProfile adds a calibrated workload profile to the registry,
// making it available to SuiteByName, arrival mixes, fleet shapes and
// the -profiles selector. It panics on invalid or duplicate
// registrations (register at init time).
func RegisterProfile(p Profile) { app.Register(p) }

// SuiteByName finds a registered profile by short name (STK, 0AD, RE,
// D2, IM, ITP, CAD, VV, CZ, plus anything registered); it panics on
// unknown names (the vocabulary is fixed at registration time).
func SuiteByName(name string) Profile {
	p, ok := app.ByName(name)
	if !ok {
		panic("pictor: unknown benchmark " + name)
	}
	return p
}

// NewInstanceConfig returns the standard instance setup: analysis
// framework on, baseline (unoptimized) interposer, bare metal.
func NewInstanceConfig(prof Profile, driver DriverFactory) InstanceConfig {
	return core.NewInstanceConfig(prof, driver)
}

// HumanDriver plays the benchmark with the reference human policy.
func HumanDriver() DriverFactory { return core.HumanDriver() }

// IntelligentClientDriver records a human session for the benchmark,
// trains the CNN+LSTM models (cached per process), and plays with the
// trained intelligent client.
func IntelligentClientDriver(prof Profile) DriverFactory {
	models, _, _ := core.TrainedModels(prof)
	return core.ICDriver(models)
}

// OptimizedInterposer returns the §6-optimized frame-copy options
// (XGetWindowAttributes memoization + two-step asynchronous copy).
func OptimizedInterposer() vgl.Options { return vgl.Optimized() }

// BaselineInterposer returns the unoptimized TurboVNC/VirtualGL path.
func BaselineInterposer() vgl.Options { return vgl.DefaultOptions() }

// DockerContainer returns the calibrated container-overhead model for
// InstanceConfig.Container.
func DockerContainer() container.Overheads { return container.Docker() }

// DefaultExperimentConfig is the configuration the benchmark harness
// and CLI use.
func DefaultExperimentConfig() ExperimentConfig { return core.DefaultExperimentConfig() }

// RunMethodologyComparison reproduces Figure 6 / Table 3 for one
// benchmark: RTT distributions and mean-RTT errors for the human
// reference, Pictor's intelligent client, DeskBench, Chen et al. and
// Slow-Motion.
func RunMethodologyComparison(prof Profile, cfg ExperimentConfig) []MethodologyResult {
	return core.RunMethodologyComparison(prof, cfg)
}

// RunCharacterization runs n co-located instances of a benchmark under
// the given driver kind and returns per-instance measurements
// (§5.1–5.2).
func RunCharacterization(prof Profile, n int, driver DriverKind, cfg ExperimentConfig) []InstanceResult {
	return core.RunCharacterization(prof, n, driver, cfg)
}

// RunCharacterizationWithPower is RunCharacterization plus modelled
// wall power (Figure 17).
func RunCharacterizationWithPower(prof Profile, n int, driver DriverKind, cfg ExperimentConfig) ([]InstanceResult, float64) {
	return core.RunCharacterizationWithPower(prof, n, driver, cfg)
}

// RunCharacterizationSweep runs the whole 1..maxN co-location sweep
// as one batch, executed concurrently by the runner. Entry n-1 holds
// the results of n copies; the second return is wall power per count.
func RunCharacterizationSweep(prof Profile, maxN int, driver DriverKind, cfg ExperimentConfig) ([][]InstanceResult, []float64) {
	return core.RunCharacterizationSweep(prof, maxN, driver, cfg)
}

// RunPair co-locates two (possibly different) benchmarks (§5.3).
func RunPair(a, b Profile, cfg ExperimentConfig) (ra, rb InstanceResult) {
	return core.RunPair(a, b, cfg)
}

// RunSuiteGrid executes the paper's complete evaluation grid — every
// experiment over every suite benchmark — on the parallel experiment
// runner. cfg.Parallel shards independent trials across cores;
// cfg.Reps repeats each with derived seeds.
func RunSuiteGrid(cfg ExperimentConfig) SuiteGridResult {
	return core.RunSuiteGrid(cfg)
}

// RunTrials executes caller-assembled trials on the experiment runner,
// returning results indexed [trial][rep]. This is the extension point
// for custom grids beyond the paper's figures. Trials whose Measure is
// zero (the constructors below leave windows unset) inherit the
// config's WarmupSeconds/Seconds.
func RunTrials(trials []Trial, cfg ExperimentConfig) [][]TrialResult {
	return core.RunTrials(trials, cfg)
}

// RunTrialsChecked is RunTrials with per-unit fault isolation: a
// panicking (trial, rep) unit fails only its own slot — left as the
// zero TrialResult — and is reported as a TrialPanic identifying the
// trial by ID and Key(). Failures are ordered by (trial, rep)
// regardless of worker scheduling. RunTrials itself re-panics on the
// first failure, preserving its historical contract.
func RunTrialsChecked(trials []Trial, cfg ExperimentConfig) ([][]TrialResult, []*TrialPanic) {
	return core.RunTrialsChecked(trials, cfg)
}

// EffectiveParallel resolves a Parallel setting the way the runner
// does (<= 0 means every available core), for display purposes.
func EffectiveParallel(n int) int { return exp.EffectiveParallel(n) }

// EffectiveReps resolves a Reps setting the way the runner does.
func EffectiveReps(n int) int { return exp.EffectiveReps(n) }

// SingleTrial is a one-instance trial with the standard setup.
func SingleTrial(prof Profile, d DriverKind) Trial { return exp.Single(prof, d) }

// HomogeneousTrial co-locates n identical instances.
func HomogeneousTrial(prof Profile, d DriverKind, n int) Trial {
	return exp.Homogeneous(prof, d, n)
}

// PairTrial co-locates two human-driven benchmarks.
func PairTrial(a, b Profile) Trial { return exp.Pair(a, b) }

// RunFleetConsolidation places a stream of instance requests across a
// multi-machine fleet with the shape's placement policy and runs every
// machine as its own simulated server, reporting per-machine RTT
// distributions, QoS-violation counts and fleet-wide power.
func RunFleetConsolidation(shape FleetShape, cfg ExperimentConfig) FleetResult {
	return core.RunFleetConsolidation(shape, cfg)
}

// FleetComparisonTable renders the policy-comparison rows as an aligned
// text table.
func FleetComparisonTable(rs []FleetResult) string {
	return core.FleetComparisonTable(rs)
}

// FleetTrialOf is a multi-server trial with the given shape, for
// caller-assembled grids via RunTrials.
func FleetTrialOf(shape FleetShape) Trial { return exp.FleetTrial(shape) }

// RunFleetChurn drives a fleet shape through its churn horizon: a
// deterministic Poisson arrival process with exponential session
// lengths, per-epoch execution of every machine, and (when
// shape.Migrate is set) a migration controller that re-places sessions
// off machines whose measured mean RTT violates the QoS ceiling.
// Requires shape.Epochs >= 1 plus positive ArrivalRate and
// MeanSessionEpochs.
func RunFleetChurn(shape FleetShape, cfg ExperimentConfig) ChurnResult {
	return core.RunFleetChurn(shape, cfg)
}

// ChurnTable renders one churn outcome as per-epoch rows (lifecycle,
// QoS, interactivity, power).
func ChurnTable(r ChurnResult) string { return core.ChurnTable(r) }

// OccupancyTable renders the per-(machine, epoch) occupancy rows of a
// churn result recorded with OccupancyDetail — the placement-heatmap
// feed. Empty when the shape did not opt in.
func OccupancyTable(r ChurnResult) string { return core.OccupancyTable(r) }

// ChurnComparisonTable renders churn outcomes side by side (static vs
// migrate).
func ChurnComparisonTable(rs []ChurnResult) string { return core.ChurnComparisonTable(rs) }

// RunSpec normalizes and executes a declarative experiment spec: the
// one way to run a fleet (every placement policy over one request
// stream), churn ({static, migrated}) or faults ({healthy, drop,
// resilient}) comparison, and the whole evaluation grid. The spec
// lowers onto the same trial batch the benchmark server runs. parallel
// shards the batch's independent trials across cores (<= 0 means every
// core). Exactly one field of the outcome is populated, selected by the
// spec's kind; invalid specs return Normalize's error.
func RunSpec(spec ExperimentSpec, parallel int) (SpecOutcome, error) {
	return core.RunSpec(spec, parallel)
}

// RunOptimization reproduces Figure 22 for one benchmark.
func RunOptimization(prof Profile, cfg ExperimentConfig) OptimizationResult {
	return core.RunOptimization(prof, cfg)
}

// RunContainerOverhead reproduces Figure 20 for one benchmark.
func RunContainerOverhead(prof Profile, cfg ExperimentConfig) ContainerResult {
	return core.RunContainerOverhead(prof, cfg)
}

// RunOverhead reproduces the §4 analysis-framework overhead experiment.
func RunOverhead(prof Profile, cfg ExperimentConfig) OverheadResult {
	return core.RunOverhead(prof, cfg)
}
