package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"pictor/internal/app"
	"pictor/internal/exp"
	"pictor/internal/fleet"
	"pictor/internal/sim"
	"pictor/internal/stats"
)

// MachineResult is one fleet machine's outcome: its placed instances'
// measurements plus machine-level rollups.
type MachineResult struct {
	// Machine is the machine's fleet index.
	Machine int
	// Results holds the placed instances' measurements, in admission
	// order.
	Results []InstanceResult
	// PredictedDemand is the placement-time CPU-demand estimate the
	// policy acted on (cores).
	PredictedDemand float64
	// PowerWatts is the machine's modelled wall power (idle machines
	// still burn idle watts — that is the point of bin-packing).
	PowerWatts float64
	// RTT pools the placed instances' RTT distributions by averaging
	// their per-instance quantiles (the historical aggregate the golden
	// fixtures pin).
	RTT stats.Summary
	// RawRTT holds the placed instances' raw RTT observations (ms,
	// sorted per instance, concatenated in admission order). Exact
	// pooled quantiles come from these — averaging per-instance
	// quantiles, as RTT does, is only an approximation of the pooled
	// distribution's quantiles.
	RawRTT []float64
	// QoSViolations counts instances below the 25-FPS interactivity
	// floor (fleet.QoSMinFPS).
	QoSViolations int
}

// FleetResult is the outcome of one multi-server consolidation trial.
type FleetResult struct {
	// Policy and Mix echo the executed shape.
	Policy string
	Mix    string
	// Requests is the arrival stream (profile names in admission
	// order). It is derived policy-independently, so every policy of a
	// comparison consolidates the identical stream.
	Requests []string
	// Machines holds per-machine results, index-aligned with the fleet.
	// Provenance caveat: when RepsMerged > 1, these rows describe
	// repetition 0 only (randomized mixes place differently under
	// different derived seeds, so machines do not align across reps),
	// while the fleet-level scalars below aggregate every repetition —
	// summing the rows will not reproduce the pooled totals.
	Machines []MachineResult
	// RepsMerged is how many repetitions the fleet-level scalars
	// aggregate (1 = a single execution; see mergeFleet).
	RepsMerged int
	// Placed and Rejected partition the request stream: admission turns
	// a request away when no machine has overcommitted capacity left.
	Placed   int
	Rejected int
	// QoSViolations counts placed instances below the 25-FPS floor,
	// fleet-wide.
	QoSViolations int
	// TotalPowerWatts sums wall power over all machines, idle included.
	TotalPowerWatts float64
	// RTT pools every placed instance's RTT distribution by averaging
	// per-instance (and, merged, per-rep) quantiles — the historical
	// aggregate the golden fixtures pin.
	RTT stats.Summary
	// ExactRTT summarizes the pooled raw RTT observations of every
	// placed instance — across every repetition when RepsMerged > 1 —
	// so its quantiles are those of the actual pooled distribution
	// rather than averages of per-rep quantiles.
	ExactRTT stats.Summary
}

// executeFleet lowers a fleet-shaped trial onto real clusters: generate
// the request stream, place it with the named policy, then build and
// run one cluster per machine. Machine clusters run sequentially inside
// the unit — the runner already shards trials across workers — with
// per-machine seeds derived from the unit seed, so results are
// byte-identical at any parallelism level.
func executeFleet(t exp.Trial, u exp.Unit) *FleetResult {
	sh := *t.Fleet
	// The stream seed must be policy-independent: u.Seed derives from
	// the trial key, which names the policy, so deriving the stream
	// from it would hand every policy of a comparison a *different*
	// random arrival stream on reps >= 1. Deriving from the trial's
	// pinned seed and the stream's own parameters keeps the streams
	// matched across policies (and still distinct per rep and mix);
	// with no pinned seed the grid's base seed — key-independent by
	// construction — fills in, never the key-derived u.Seed.
	streamBase := t.Seed
	if streamBase == 0 {
		streamBase = u.Base
	}
	suite := resolveShapeProfiles(t.ID, sh.Profiles)
	// The workload subset joins the stream key only when set, so every
	// pre-registry shape derives its exact historical stream seed.
	streamKey := fmt.Sprintf("fleet/mix|%s|%d", sh.Mix, sh.Requests)
	if sh.Profiles != "" {
		streamKey += "|profiles=" + sh.Profiles
	}
	reqs, err := fleet.RequestStreamFrom(suite, fleet.Mix(sh.Mix), sh.Requests, exp.DeriveSeed(streamBase, streamKey, u.Rep))
	if err != nil {
		panic(fmt.Sprintf("core: fleet trial %q: %v", t.ID, err))
	}
	pol := fleetPolicy(t.ID, sh.Policy, suite)
	f := buildFleet(t.ID, sh)
	f.Admit(reqs, pol)

	out := &FleetResult{
		Policy:   pol.Name(),
		Mix:      string(sh.Mix),
		Requests: make([]string, len(reqs)),
		Machines: make([]MachineResult, len(f.Machines)),
		Rejected: len(f.Rejected),
	}
	if out.Mix == "" {
		out.Mix = string(fleet.MixSuite)
	}
	for i, r := range reqs {
		out.Requests[i] = r.Profile.Name
	}
	var fleetRTTs []stats.Summary
	for mi, m := range f.Machines {
		cl := runPlaced(t, m, exp.DeriveSeed(u.Seed, "fleet/machine", mi))

		mr := MachineResult{
			Machine:         mi,
			Results:         make([]InstanceResult, len(cl.Instances)),
			PredictedDemand: m.Demand,
			PowerWatts:      cl.TotalPowerWatts(),
		}
		var machineRTTs []stats.Summary
		for i, inst := range cl.Instances {
			r := inst.Result()
			mr.Results[i] = r
			if r.ClientFPS < fleet.QoSMinFPS {
				mr.QoSViolations++
			}
			if r.RTT.N > 0 {
				machineRTTs = append(machineRTTs, r.RTT)
				mr.RawRTT = append(mr.RawRTT, inst.Tracer.RTTs().Values()...)
			}
		}
		mr.RTT = exp.PoolSummaries(machineRTTs)
		fleetRTTs = append(fleetRTTs, machineRTTs...)

		out.Machines[mi] = mr
		out.Placed += len(mr.Results)
		out.QoSViolations += mr.QoSViolations
		out.TotalPowerWatts += mr.PowerWatts
	}
	out.RTT = exp.PoolSummaries(fleetRTTs)
	out.ExactRTT = exactPooledRTT([]*FleetResult{out})
	return out
}

// runPlaced builds machine m's cluster from seed — its core class
// rounded to whole cores, one human-driven instance per placed profile
// in placement order — and runs it through t's warmup and measure
// windows. One-shot fleets and full-fidelity churn epochs both execute
// a placed machine this way.
func runPlaced(t exp.Trial, m *fleet.Machine, seed int64) *Cluster {
	cl := NewCluster(Options{Seed: seed, Cores: int(m.Cores + 0.5)})
	for _, v := range m.Placed {
		cl.AddInstance(NewInstanceConfig(v.Profile, HumanDriver()))
	}
	cl.Run(sim.DurationOfSeconds(t.Warmup), sim.DurationOfSeconds(t.Measure))
	return cl
}

// exactPooledRTT pools every machine's raw RTT observations across the
// given results into one sample and summarizes it exactly. Fed one
// result it describes a single execution; fed a trial's repetitions it
// is the cross-rep pooled distribution mergeFleet records.
func exactPooledRTT(frs []*FleetResult) stats.Summary {
	var pooled stats.Sample
	for _, fr := range frs {
		for _, m := range fr.Machines {
			pooled.AddAll(m.RawRTT)
		}
	}
	if pooled.N() == 0 {
		return stats.Summary{}
	}
	return pooled.Summarize()
}

// buildFleet constructs the placement-time fleet for a shape:
// heterogeneous when CoreClasses is set (classes cycle across
// machines), homogeneous at MachineCores (default: the paper testbed's
// 8) otherwise.
func buildFleet(id string, sh exp.FleetShape) *fleet.Fleet {
	machines := sh.Machines
	if machines < 1 {
		machines = 1
	}
	classes, err := fleet.ParseCoreClasses(sh.CoreClasses)
	if err != nil {
		panic(fmt.Sprintf("core: fleet trial %q: %v", id, err))
	}
	if len(classes) == 0 {
		cores := float64(sh.MachineCores)
		if cores <= 0 {
			cores = fleet.DefaultMachineCores
		}
		classes = []float64{cores}
	}
	return fleet.NewHetero(machines, classes)
}

// fleetPolicy resolves a placement-policy name, wiring the measured
// pair-interference table over the trial's workload set into the
// bin-packer.
func fleetPolicy(id, name string, suite []app.Profile) fleet.Placement {
	var it *fleet.Interference
	if name == fleet.PolicyBinPack {
		it = PairInterferenceAmong(suite)
	}
	pol, err := fleet.NewPolicy(name, it)
	if err != nil {
		panic(fmt.Sprintf("core: fleet trial %q: %v", id, err))
	}
	return pol
}

// resolveShapeProfiles resolves a shape's workload selection with an
// attributable panic on invalid specs (validateFleetShape catches them
// before trials reach the runner; this is the executor-side backstop).
func resolveShapeProfiles(id, spec string) []app.Profile {
	ps, err := app.Resolve(spec)
	if err != nil {
		panic(fmt.Sprintf("core: fleet trial %q: %v", id, err))
	}
	return ps
}

// ---------------------------------------------------------------------------
// Pair interference (placement input for the bin-packing policy)

// interferenceSeed and the short windows below fix the internal
// co-location measurement, so the table — and everything placed with it
// — is identical in every process regardless of caller configuration.
const interferenceSeed = 0xB1DC0DE

// interferenceCache memoizes measured tables per suite fingerprint
// (sorted profile names): the n(n+1)/2 pair measurement is expensive,
// and fleets over the same workload set must place identically. Entries
// hold a sync.Once so concurrent trials requesting the same fingerprint
// measure once while different fingerprints proceed independently.
type interferenceEntry struct {
	once  sync.Once
	table *fleet.Interference
}

var interferenceCache sync.Map // fingerprint string → *interferenceEntry

// suiteFingerprint canonicalizes a workload set for caching: the sorted
// profile names, joined. Order-independent — {STK,RE} and {RE,STK}
// measure the same table.
func suiteFingerprint(suite []app.Profile) string {
	names := make([]string, len(suite))
	for i, p := range suite {
		names[i] = p.Name
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// PairInterference measures the co-location penalty of every unordered
// pair of the paper's six-benchmark suite (6 solo + 21 pair trials) —
// the historical default table. See PairInterferenceAmong.
func PairInterference() *fleet.Interference {
	return PairInterferenceAmong(app.PaperSuite())
}

// PairInterferenceAmong measures the co-location penalty of every
// unordered pair of the given workload set (self-pairs included): the
// §5.3 experiment, reduced to one number per pair — the mean relative
// server-FPS loss of running paired vs solo. It runs n solo + n(n+1)/2
// pair trials with short fixed-seed windows, once per process per suite
// fingerprint (cached, like TrainedModels), and is the placement input
// for the profile-affinity bin-packing policy. Trial keys depend only
// on the profiles named, so a pair shared by two fingerprints measures
// the identical score in both tables.
func PairInterferenceAmong(suite []app.Profile) *fleet.Interference {
	e, _ := interferenceCache.LoadOrStore(suiteFingerprint(suite), &interferenceEntry{})
	entry := e.(*interferenceEntry)
	entry.once.Do(func() {
		cfg := ExperimentConfig{WarmupSeconds: 1, Seconds: 5, Seed: interferenceSeed, Parallel: 1}

		trials := make([]exp.Trial, 0, len(suite)+len(suite)*(len(suite)+1)/2)
		for _, p := range suite {
			trials = append(trials, characterizationTrial(p, 1, exp.DriverHuman, cfg))
		}
		type pair struct{ a, b int }
		var pairs []pair
		for i := range suite {
			for j := i; j < len(suite); j++ {
				pairs = append(pairs, pair{i, j})
				trials = append(trials, pairTrial(suite[i], suite[j], cfg))
			}
		}

		res := RunTrials(trials, cfg)
		solo := make(map[string]float64, len(suite))
		for i, p := range suite {
			solo[p.Name] = res[i][0].Results[0].ServerFPS
		}
		it := fleet.NewInterference()
		for pi, pr := range pairs {
			rs := res[len(suite)+pi][0].Results
			a, b := suite[pr.a].Name, suite[pr.b].Name
			loss := func(name string, got float64) float64 {
				if solo[name] <= 0 {
					return 0
				}
				l := (solo[name] - got) / solo[name]
				if l < 0 {
					return 0
				}
				return l
			}
			it.Set(a, b, (loss(a, rs[0].ServerFPS)+loss(b, rs[1].ServerFPS))/2)
		}
		entry.table = it
	})
	return entry.table
}

// ---------------------------------------------------------------------------
// Entry points

// fleetTrial builds the runner trial for a fleet shape with the
// config's windows and pinned seed.
func fleetTrial(shape exp.FleetShape, cfg ExperimentConfig) exp.Trial {
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
	t.ID = fmt.Sprintf("fleet/%s/%s/m%d×r%d", pol, mix, shape.Machines, shape.Requests)
	if shape.Profiles != "" {
		t.ID += "/" + shape.Profiles
	}
	return t
}

// mergeFleet folds a fleet trial's repetitions: fleet-scope scalars
// average and RTT distributions pool across seeds. Per-machine detail
// comes from the first repetition — randomized mixes place differently
// under different derived seeds, so machines do not align across reps —
// and FleetResult.RepsMerged marks that provenance. The per-machine and
// request slices are deep-copied: the merged value used to alias rep
// 0's slices, so mutating one silently corrupted the other.
func mergeFleet(reps []TrialResult) FleetResult {
	out := *reps[0].Fleet
	out.RepsMerged = len(reps)
	out.Requests = append([]string(nil), out.Requests...)
	out.Machines = append([]MachineResult(nil), out.Machines...)
	for i := range out.Machines {
		out.Machines[i].Results = append([]InstanceResult(nil), out.Machines[i].Results...)
		out.Machines[i].RawRTT = append([]float64(nil), out.Machines[i].RawRTT...)
	}
	if len(reps) == 1 {
		return out
	}
	inv := 1 / float64(len(reps))
	power, placed, rejected, qos := 0.0, 0.0, 0.0, 0.0
	rtts := make([]stats.Summary, 0, len(reps))
	raws := make([]*FleetResult, 0, len(reps))
	for _, r := range reps {
		fr := r.Fleet
		power += fr.TotalPowerWatts * inv
		placed += float64(fr.Placed) * inv
		rejected += float64(fr.Rejected) * inv
		qos += float64(fr.QoSViolations) * inv
		if fr.RTT.N > 0 {
			rtts = append(rtts, fr.RTT)
		}
		raws = append(raws, fr)
	}
	out.TotalPowerWatts = power
	out.Placed = int(placed + 0.5)
	out.Rejected = int(rejected + 0.5)
	out.QoSViolations = int(qos + 0.5)
	out.RTT = exp.PoolSummaries(rtts)
	// Unlike RTT, which averages each rep's (already averaged) quantile
	// vector, ExactRTT re-summarizes the union of every rep's raw
	// observations — the quantiles of the pooled distribution itself.
	out.ExactRTT = exactPooledRTT(raws)
	return out
}

// validateFleetShape rejects unknown policy or mix names — and, for
// churn shapes, invalid churn parameters — before any trial reaches
// the parallel runner: a worker panic mid-grid is unattributable, a
// caller-goroutine panic with the valid names is actionable. (The
// experiment entry points have no error returns — like SuiteByName,
// invalid fixed vocabulary panics by contract.)
func validateFleetShape(shape exp.FleetShape) {
	if _, err := fleet.NewPolicy(shape.Policy, nil); err != nil {
		panic("core: " + err.Error())
	}
	if err := fleet.ValidateMix(fleet.Mix(shape.Mix)); err != nil {
		panic("core: " + err.Error())
	}
	if _, err := fleet.ParseCoreClasses(shape.CoreClasses); err != nil {
		panic("core: " + err.Error())
	}
	if _, err := app.Resolve(shape.Profiles); err != nil {
		panic("core: " + err.Error())
	}
	if shape.Churn() {
		if err := fleet.ValidateChurnParams(shape.ArrivalRate, shape.MeanSessionEpochs, shape.Epochs); err != nil {
			panic("core: " + err.Error())
		}
		if err := fleet.ValidateSchedule(shape.RateSchedule, shape.ArrivalRate, shape.PeakRate, shape.PeriodEpochs); err != nil {
			panic("core: " + err.Error())
		}
	} else if shape.Requests < 1 {
		panic(fmt.Sprintf("core: fleet shape needs Requests >= 1, got %d (churn shapes set Epochs instead)", shape.Requests))
	}
	if err := fleet.ValidateFaultParams(shape.MTBFEpochs, shape.MTTREpochs); err != nil {
		panic("core: " + err.Error())
	}
	if (shape.Faulty() || shape.RetryAttempts > 0 || shape.Degrade) && !shape.Churn() {
		panic(fmt.Sprintf("core: fault injection, failover and degradation need a churn shape (Epochs >= 1, got %d) — one-shot admission has no epochs to crash, retry or recover in", shape.Epochs))
	}
	if shape.RetryAttempts < 0 || shape.RetryBackoffEpochs < 0 {
		panic(fmt.Sprintf("core: retry attempts and backoff must be >= 0, got %d, %d", shape.RetryAttempts, shape.RetryBackoffEpochs))
	}
	if (shape.SurrogateTail || shape.OccupancyDetail) && !shape.Churn() {
		panic(fmt.Sprintf("core: fidelity tiers and occupancy detail need a churn shape (Epochs >= 1, got %d) — one-shot admission has no epochs to tier or record", shape.Epochs))
	}
	if (shape.RateSchedule != "" || shape.RollupOnly) && !shape.Churn() {
		panic(fmt.Sprintf("core: arrival-rate schedules and rollup-only results need a churn shape (Epochs >= 1, got %d) — one-shot admission has no epochs to schedule or roll up", shape.Epochs))
	}
	if shape.FidelitySampled < 0 {
		panic(fmt.Sprintf("core: FidelitySampled must be >= 0, got %d", shape.FidelitySampled))
	}
	if shape.FidelitySampled > 0 && !shape.SurrogateTail {
		panic(fmt.Sprintf("core: FidelitySampled (%d) without SurrogateTail does nothing — full fidelity everywhere is the default; set SurrogateTail to enable the tier split", shape.FidelitySampled))
	}
}

// RunFleetConsolidation places the shape's request stream across its
// machines with the shape's policy and runs every machine, reporting
// per-machine RTT distributions, QoS-violation counts and fleet-wide
// power. With cfg.Reps > 1 fleet-scope numbers aggregate across derived
// seeds (see mergeFleet). Unknown policy or mix names panic immediately
// (the vocabulary is fixed — see fleet.PolicyNames and fleet.Mixes).
func RunFleetConsolidation(shape exp.FleetShape, cfg ExperimentConfig) FleetResult {
	if shape.Churn() {
		panic(fmt.Sprintf("core: RunFleetConsolidation needs a one-shot shape (Epochs == 0, got %d); use RunFleetChurn for churn", shape.Epochs))
	}
	validateFleetShape(shape)
	return mergeFleet(RunTrials([]exp.Trial{fleetTrial(shape, cfg)}, cfg)[0])
}

// fleetComparisonTrials is the "fleet" kind's trial batch — one trial
// per placement policy in fleet.PolicyNames order, all consolidating
// the identical arrival stream (it is derived from the config seed and
// the stream parameters only), so rankings reflect placement, not
// stream luck.
func fleetComparisonTrials(shape exp.FleetShape, cfg ExperimentConfig) []exp.Trial {
	names := fleet.PolicyNames()
	trials := make([]exp.Trial, len(names))
	for i, name := range names {
		s := shape
		s.Policy = name
		trials[i] = fleetTrial(s, cfg)
	}
	return trials
}

// FleetComparisonTable renders policy-comparison rows: placement and
// QoS outcomes plus power, one row per policy.
func FleetComparisonTable(rs []FleetResult) string {
	t := stats.NewTable("policy", "placed", "rejected", "QoS-viol", "RTT mean", "RTT p99", "fleet W", "W/inst")
	for _, r := range rs {
		perInst := 0.0
		if r.Placed > 0 {
			perInst = r.TotalPowerWatts / float64(r.Placed)
		}
		t.Row(r.Policy,
			fmt.Sprintf("%d", r.Placed),
			fmt.Sprintf("%d", r.Rejected),
			fmt.Sprintf("%d", r.QoSViolations),
			fmt.Sprintf("%.1f ms", r.RTT.Mean),
			fmt.Sprintf("%.1f ms", r.RTT.P99),
			fmt.Sprintf("%.1f", r.TotalPowerWatts),
			fmt.Sprintf("%.1f", perInst))
	}
	return t.String()
}
