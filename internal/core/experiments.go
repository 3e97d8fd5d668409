package core

import (
	"fmt"
	"sort"

	"pictor/internal/app"
	"pictor/internal/baselines"
	"pictor/internal/exp"
	"pictor/internal/sim"
	"pictor/internal/stats"
	"pictor/internal/trace"
	"pictor/internal/vgl"
)

// ExperimentConfig bounds experiment cost. The paper runs 15-minute
// sessions; the simulator reaches steady state much sooner, so the
// defaults are shorter. Raise Seconds for tighter confidence, Reps for
// confidence intervals across independent seeds, and Parallel to shard
// trials across cores.
type ExperimentConfig struct {
	WarmupSeconds float64
	Seconds       float64
	Seed          int64
	MaxInstances  int // Figures 10–17 sweep 1..MaxInstances
	// Parallel is the experiment runner's worker count; <= 0 uses
	// every available core (runtime.GOMAXPROCS).
	Parallel int
	// Reps repeats every trial with independently derived seeds and
	// aggregates; <= 0 means a single run.
	Reps int
	// Profiles selects the workload set suite-scope experiments sweep:
	// a comma-separated list of registered profile names ("STK,CAD,VV"),
	// "all" for every registered profile, or "" for the paper's Table-2
	// six (see app.Resolve). Per-profile entry points ignore it — they
	// take a Profile explicitly.
	Profiles string
}

// suite resolves the config's workload selection. Like the rest of the
// experiment vocabulary, an invalid selection panics (validate with
// app.Resolve at the boundary — the CLI does).
func (cfg ExperimentConfig) suite() []app.Profile {
	ps, err := app.Resolve(cfg.Profiles)
	if err != nil {
		panic("core: " + err.Error())
	}
	return ps
}

// DefaultExperimentConfig is used by the benchmarks and the CLI.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{WarmupSeconds: 3, Seconds: 60, Seed: 1, MaxInstances: 4}
}

// QuickExperimentConfig is for tests.
func QuickExperimentConfig() ExperimentConfig {
	return ExperimentConfig{WarmupSeconds: 2, Seconds: 12, Seed: 1, MaxInstances: 2}
}

// runOptions lowers the config onto the experiment runner.
func (cfg ExperimentConfig) runOptions() exp.RunOptions {
	return exp.RunOptions{Parallel: cfg.Parallel, Reps: cfg.Reps, BaseSeed: cfg.Seed}
}

// trial builds a Trial from instance specs with the config's windows
// and pinned seed (so single-rep runs reproduce the legacy sequential
// numbers exactly).
func (cfg ExperimentConfig) trial(specs ...exp.InstanceSpec) exp.Trial {
	return exp.Trial{
		Instances: specs,
		Warmup:    cfg.WarmupSeconds,
		Measure:   cfg.Seconds,
		Seed:      cfg.Seed,
	}
}

// RunTrials executes a set of trials on the shared runner. Results are
// indexed [trial][rep]. A trial with no measurement window (the
// constructors leave Warmup/Measure zero) inherits the config's
// windows; a zero-measure trial would otherwise silently report
// all-zero results.
func RunTrials(trials []exp.Trial, cfg ExperimentConfig) [][]TrialResult {
	out, errs := RunTrialsChecked(trials, cfg)
	if len(errs) > 0 {
		// Fail with the unit's identity (trial ID, full Key(), rep)
		// rather than the raw panic value — a poisoned trial in a large
		// sweep must name itself.
		panic(errs[0])
	}
	return out
}

// RunTrialsChecked is RunTrials with per-unit panic isolation: a
// panicking trial execution fails only its own (trial, repetition) unit
// — reported as an exp.PanicError carrying the trial's ID, Key() and
// repetition — while every other unit's result lands intact. Errors
// come back sorted by (trial, rep).
func RunTrialsChecked(trials []exp.Trial, cfg ExperimentConfig) ([][]TrialResult, []*exp.PanicError) {
	defaulted := make([]exp.Trial, len(trials))
	copy(defaulted, trials)
	for i := range defaulted {
		if defaulted[i].Measure <= 0 {
			defaulted[i].Measure = cfg.Seconds
			if defaulted[i].Warmup <= 0 {
				defaulted[i].Warmup = cfg.WarmupSeconds
			}
		}
	}
	return exp.RunChecked(defaulted, ExecuteTrial, cfg.runOptions())
}

// ---------------------------------------------------------------------------
// Repetition merging

// mergeInstances folds a trial's repetitions into per-instance results:
// scalar measurements average across seeds, distribution summaries pool.
// A single repetition passes through untouched.
func mergeInstances(reps []TrialResult) []InstanceResult {
	if len(reps) == 1 {
		return reps[0].Results
	}
	n := len(reps[0].Results)
	out := make([]InstanceResult, n)
	for i := 0; i < n; i++ {
		mean := func(f func(InstanceResult) float64) float64 {
			return exp.MeanOf(reps, func(r TrialResult) float64 { return f(r.Results[i]) })
		}
		r0 := reps[0].Results[i]
		m := InstanceResult{
			Name:      r0.Name,
			Benchmark: r0.Benchmark,

			ServerFPS: mean(func(r InstanceResult) float64 { return r.ServerFPS }),
			ClientFPS: mean(func(r InstanceResult) float64 { return r.ClientFPS }),
			Dropped:   int64(mean(func(r InstanceResult) float64 { return float64(r.Dropped) })),

			Stages: make(map[trace.Stage]stats.Summary),

			AppCPUUtil: mean(func(r InstanceResult) float64 { return r.AppCPUUtil }),
			VNCCPUUtil: mean(func(r InstanceResult) float64 { return r.VNCCPUUtil }),
			GPUUtil:    mean(func(r InstanceResult) float64 { return r.GPUUtil }),

			L3MissRate:  mean(func(r InstanceResult) float64 { return r.L3MissRate }),
			GPUL2Miss:   mean(func(r InstanceResult) float64 { return r.GPUL2Miss }),
			GPUTexMiss:  mean(func(r InstanceResult) float64 { return r.GPUTexMiss }),
			FootprintMB: r0.FootprintMB,
			GPUMemoryMB: r0.GPUMemoryMB,

			NetUpMbps:   mean(func(r InstanceResult) float64 { return r.NetUpMbps }),
			NetDownMbps: mean(func(r InstanceResult) float64 { return r.NetDownMbps }),
			PCIeToGPU:   mean(func(r InstanceResult) float64 { return r.PCIeToGPU }),
			PCIeFromGPU: mean(func(r InstanceResult) float64 { return r.PCIeFromGPU }),

			AttrCalls: int64(mean(func(r InstanceResult) float64 { return float64(r.AttrCalls) })),
			Copies:    int64(mean(func(r InstanceResult) float64 { return float64(r.Copies) })),
		}
		m.CPUTopDown = TopDown{
			Retiring: mean(func(r InstanceResult) float64 { return r.CPUTopDown.Retiring }),
			FrontEnd: mean(func(r InstanceResult) float64 { return r.CPUTopDown.FrontEnd }),
			BadSpec:  mean(func(r InstanceResult) float64 { return r.CPUTopDown.BadSpec }),
			BackEnd:  mean(func(r InstanceResult) float64 { return r.CPUTopDown.BackEnd }),
			IPC:      mean(func(r InstanceResult) float64 { return r.CPUTopDown.IPC }),
		}
		rtts := make([]stats.Summary, len(reps))
		for ri, r := range reps {
			rtts[ri] = r.Results[i].RTT
		}
		m.RTT = exp.PoolSummaries(rtts)
		for _, s := range trace.Stages {
			ss := make([]stats.Summary, len(reps))
			for ri, r := range reps {
				ss[ri] = r.Results[i].Stages[s]
			}
			m.Stages[s] = exp.PoolSummaries(ss)
		}
		out[i] = m
	}
	return out
}

// ---------------------------------------------------------------------------
// Characterization (§5.1–5.2)

func characterizationTrial(prof app.Profile, n int, driver exp.DriverKind, cfg ExperimentConfig) exp.Trial {
	t := exp.Homogeneous(prof, driver, n)
	t.Warmup, t.Measure, t.Seed = cfg.WarmupSeconds, cfg.Seconds, cfg.Seed
	t.ID = fmt.Sprintf("char/%s/%s×%d", prof.Name, driver, n)
	return t
}

// RunCharacterization runs n identical instances of one benchmark and
// returns per-instance results (the §5.1/§5.2 experiments).
func RunCharacterization(prof app.Profile, n int, driver exp.DriverKind, cfg ExperimentConfig) []InstanceResult {
	rs, _ := RunCharacterizationWithPower(prof, n, driver, cfg)
	return rs
}

// RunCharacterizationWithPower is RunCharacterization plus wall power.
func RunCharacterizationWithPower(prof app.Profile, n int, driver exp.DriverKind, cfg ExperimentConfig) ([]InstanceResult, float64) {
	reps := RunTrials([]exp.Trial{characterizationTrial(prof, n, driver, cfg)}, cfg)[0]
	watts := exp.MeanOf(reps, func(r TrialResult) float64 { return r.PowerWatts })
	return mergeInstances(reps), watts
}

// RunCharacterizationSweep runs the full 1..maxN co-location sweep
// (Figures 10–17) as one batch of independent trials, so the runner
// executes every count concurrently instead of one call per count.
// Entry n-1 holds the merged per-instance results of n co-located
// copies; the second return is wall power per count.
func RunCharacterizationSweep(prof app.Profile, maxN int, driver exp.DriverKind, cfg ExperimentConfig) ([][]InstanceResult, []float64) {
	if maxN < 1 {
		maxN = 1
	}
	trials := make([]exp.Trial, maxN)
	for n := 1; n <= maxN; n++ {
		trials[n-1] = characterizationTrial(prof, n, driver, cfg)
	}
	res := RunTrials(trials, cfg)
	out := make([][]InstanceResult, maxN)
	watts := make([]float64, maxN)
	for i, reps := range res {
		out[i] = mergeInstances(reps)
		watts[i] = exp.MeanOf(reps, func(r TrialResult) float64 { return r.PowerWatts })
	}
	return out, watts
}

// ---------------------------------------------------------------------------
// Co-location pairs (§5.3)

func pairTrial(a, b app.Profile, cfg ExperimentConfig) exp.Trial {
	t := exp.Pair(a, b)
	t.Warmup, t.Measure, t.Seed = cfg.WarmupSeconds, cfg.Seconds, cfg.Seed
	t.ID = fmt.Sprintf("pair/%s+%s", a.Name, b.Name)
	return t
}

// RunPair co-locates two (possibly different) benchmarks (§5.3).
func RunPair(a, b app.Profile, cfg ExperimentConfig) (ra, rb InstanceResult) {
	merged := mergeInstances(RunTrials([]exp.Trial{pairTrial(a, b, cfg)}, cfg)[0])
	return merged[0], merged[1]
}

// ---------------------------------------------------------------------------
// Methodology comparison (Figure 6 / Table 3)

// MethodologyResult is one driver's RTT outcome for Figure 6 / Table 3.
type MethodologyResult struct {
	Method string
	RTT    stats.Summary
	// ErrVsHuman is the |mean error| percentage against the human run.
	ErrVsHuman float64
}

func methodologyTrials(prof app.Profile, cfg ExperimentConfig) []exp.Trial {
	mk := func(id string, spec exp.InstanceSpec) exp.Trial {
		t := cfg.trial(spec)
		t.ID = "method/" + prof.Name + "/" + id
		return t
	}
	human := mk("human", exp.InstanceSpec{Profile: prof, Driver: exp.DriverHuman})
	// The Chen et al. estimator re-reads the human run's raw trace, so
	// this one trial must keep its executed system.
	human.KeepSystem = true
	return []exp.Trial{
		human,
		mk("ic", exp.InstanceSpec{Profile: prof, Driver: exp.DriverIC}),
		mk("deskbench", exp.InstanceSpec{Profile: prof, Driver: exp.DriverDeskBench}),
		mk("slowmotion", exp.InstanceSpec{Profile: prof, Driver: exp.DriverSlowMotion, Mode: app.ModeSlowMotion}),
	}
}

// finishMethodology turns the four executed trials (human, IC,
// DeskBench, Slow-Motion) into Figure-6/Table-3 rows. The Chen et al.
// estimator is not a fifth trial: it re-reads each repetition's human
// trace, which is why TrialResult keeps the cluster.
func finishMethodology(prof app.Profile, res [][]TrialResult) []MethodologyResult {
	nrep := len(res[0])
	perRep := make([][]MethodologyResult, nrep)
	for r := 0; r < nrep; r++ {
		human := res[0][r].Results[0]
		icRes := res[1][r].Results[0]
		dbRes := res[2][r].Results[0]
		smRes := res[3][r].Results[0]
		humanTrial := res[0][r]
		chen := baselines.ChenEstimate(humanTrial.Cluster.Instances[0].Tracer, prof, sim.NewRNG(humanTrial.Seed+99))

		errOf := func(m float64) float64 { return stats.PercentError(m, human.RTT.Mean) }
		perRep[r] = []MethodologyResult{
			{Method: "Human", RTT: human.RTT, ErrVsHuman: 0},
			{Method: "Pictor-IC", RTT: icRes.RTT, ErrVsHuman: errOf(icRes.RTT.Mean)},
			{Method: "DeskBench", RTT: dbRes.RTT, ErrVsHuman: errOf(dbRes.RTT.Mean)},
			{Method: "Chen", RTT: chen.Summarize(), ErrVsHuman: errOf(chen.Mean())},
			{Method: "SlowMotion", RTT: smRes.RTT, ErrVsHuman: errOf(smRes.RTT.Mean)},
		}
	}
	if nrep == 1 {
		return perRep[0]
	}
	out := make([]MethodologyResult, len(perRep[0]))
	for m := range out {
		rtts := make([]stats.Summary, nrep)
		var errSum float64
		for r := 0; r < nrep; r++ {
			rtts[r] = perRep[r][m].RTT
			errSum += perRep[r][m].ErrVsHuman
		}
		out[m] = MethodologyResult{
			Method:     perRep[0][m].Method,
			RTT:        exp.PoolSummaries(rtts),
			ErrVsHuman: errSum / float64(nrep),
		}
	}
	return out
}

// RunMethodologyComparison reproduces Figure 6 and Table 3 for one
// benchmark: RTT distributions under the human reference, Pictor's IC,
// DeskBench replay, the Chen et al. stage-sum estimate, and
// Slow-Motion, plus each methodology's mean-RTT error vs the human.
func RunMethodologyComparison(prof app.Profile, cfg ExperimentConfig) []MethodologyResult {
	return finishMethodology(prof, RunTrials(methodologyTrials(prof, cfg), cfg))
}

// ---------------------------------------------------------------------------
// Analysis-framework overhead (§4)

// OverheadResult is the §4 framework-overhead experiment for one
// benchmark.
type OverheadResult struct {
	Benchmark     string
	FPSNoTrace    float64
	FPSTraced     float64
	FPSTracedSB   float64 // single-buffered GPU queries
	OverheadPct   float64 // traced vs untraced server-FPS loss
	OverheadSBPct float64
}

func overheadTrials(prof app.Profile, cfg ExperimentConfig) []exp.Trial {
	mk := func(id string, tracingOff, doubleBuf bool) exp.Trial {
		ip := vgl.DefaultOptions()
		ip.QueryDoubleBuffer = doubleBuf
		t := cfg.trial(exp.InstanceSpec{
			Profile:    prof,
			Driver:     exp.DriverIC,
			TracingOff: tracingOff,
			Interposer: ip,
		})
		t.ID = "overhead/" + prof.Name + "/" + id
		return t
	}
	return []exp.Trial{
		mk("native", true, true),
		mk("traced", false, true),
		mk("traced-sb", false, false),
	}
}

func finishOverhead(prof app.Profile, res [][]TrialResult) OverheadResult {
	fps := func(reps []TrialResult) float64 {
		return exp.MeanOf(reps, func(r TrialResult) float64 { return r.Results[0].ServerFPS })
	}
	native, traced, single := fps(res[0]), fps(res[1]), fps(res[2])
	overhead := func(v float64) float64 {
		if native == 0 {
			return 0
		}
		return (native - v) / native * 100
	}
	return OverheadResult{
		Benchmark:     prof.Name,
		FPSNoTrace:    native,
		FPSTraced:     traced,
		FPSTracedSB:   single,
		OverheadPct:   overhead(traced),
		OverheadSBPct: overhead(single),
	}
}

// RunOverhead measures the analysis framework's cost: native TurboVNC
// (tracing off) vs traced, and traced with single-buffered GPU queries.
func RunOverhead(prof app.Profile, cfg ExperimentConfig) OverheadResult {
	return finishOverhead(prof, RunTrials(overheadTrials(prof, cfg), cfg))
}

// ---------------------------------------------------------------------------
// Frame-copy optimizations (Figure 22)

// OptimizationResult is the Figure 22 outcome for one benchmark.
type OptimizationResult struct {
	Benchmark     string
	BaseServerFPS float64
	OptServerFPS  float64
	BaseClientFPS float64
	OptClientFPS  float64
	BaseRTT       float64
	OptRTT        float64
	ServerFPSGain float64 // %
	ClientFPSGain float64 // %
	RTTReduction  float64 // %, positive = faster
	BaseFCMs      float64
	OptFCMs       float64
}

func optimizationTrials(prof app.Profile, cfg ExperimentConfig) []exp.Trial {
	mk := func(id string, opts vgl.Options) exp.Trial {
		t := cfg.trial(exp.InstanceSpec{Profile: prof, Driver: exp.DriverHuman, Interposer: opts})
		t.ID = "opt/" + prof.Name + "/" + id
		return t
	}
	return []exp.Trial{
		mk("base", vgl.DefaultOptions()),
		mk("optimized", vgl.Optimized()),
	}
}

func finishOptimization(prof app.Profile, res [][]TrialResult) OptimizationResult {
	base := mergeInstances(res[0])[0]
	opt := mergeInstances(res[1])[0]
	return OptimizationResult{
		Benchmark:     prof.Name,
		BaseServerFPS: base.ServerFPS, OptServerFPS: opt.ServerFPS,
		BaseClientFPS: base.ClientFPS, OptClientFPS: opt.ClientFPS,
		BaseRTT: base.RTT.Mean, OptRTT: opt.RTT.Mean,
		ServerFPSGain: stats.PercentChange(opt.ServerFPS, base.ServerFPS),
		ClientFPSGain: stats.PercentChange(opt.ClientFPS, base.ClientFPS),
		RTTReduction:  -stats.PercentChange(opt.RTT.Mean, base.RTT.Mean),
		BaseFCMs:      base.Stages[trace.StageFC].Mean,
		OptFCMs:       opt.Stages[trace.StageFC].Mean,
	}
}

// RunOptimization reproduces Figure 22 for one benchmark: baseline vs
// both §6 optimizations.
func RunOptimization(prof app.Profile, cfg ExperimentConfig) OptimizationResult {
	return finishOptimization(prof, RunTrials(optimizationTrials(prof, cfg), cfg))
}

// ---------------------------------------------------------------------------
// Container overhead (Figure 20)

// ContainerResult is the Figure 20 outcome for one benchmark.
type ContainerResult struct {
	Benchmark      string
	BareServerFPS  float64
	ContServerFPS  float64
	BareRTT        float64
	ContRTT        float64
	FPSOverheadPct float64 // positive = container slower
	RTTOverheadPct float64
	RDOverheadPct  float64
}

func containerTrials(prof app.Profile, cfg ExperimentConfig) []exp.Trial {
	mk := func(id string, containerized bool) exp.Trial {
		t := cfg.trial(exp.InstanceSpec{Profile: prof, Driver: exp.DriverHuman, Containerized: containerized})
		t.ID = "container/" + prof.Name + "/" + id
		return t
	}
	return []exp.Trial{mk("bare", false), mk("docker", true)}
}

func finishContainer(prof app.Profile, res [][]TrialResult) ContainerResult {
	bare := mergeInstances(res[0])[0]
	cont := mergeInstances(res[1])[0]
	return ContainerResult{
		Benchmark:     prof.Name,
		BareServerFPS: bare.ServerFPS, ContServerFPS: cont.ServerFPS,
		BareRTT: bare.RTT.Mean, ContRTT: cont.RTT.Mean,
		FPSOverheadPct: -stats.PercentChange(cont.ServerFPS, bare.ServerFPS),
		RTTOverheadPct: stats.PercentChange(cont.RTT.Mean, bare.RTT.Mean),
		RDOverheadPct:  stats.PercentChange(cont.Stages[trace.StageRD].Mean, bare.Stages[trace.StageRD].Mean),
	}
}

// RunContainerOverhead reproduces Figure 20 for one benchmark.
func RunContainerOverhead(prof app.Profile, cfg ExperimentConfig) ContainerResult {
	return finishContainer(prof, RunTrials(containerTrials(prof, cfg), cfg))
}

// ---------------------------------------------------------------------------
// The full paper grid

// SuiteGridResult is every experiment of the paper's evaluation over
// the selected workload suite (cfg.Profiles; the paper's six by
// default), produced by one runner invocation.
type SuiteGridResult struct {
	// Methodology maps benchmark → Figure-6/Table-3 rows.
	Methodology map[string][]MethodologyResult
	// Characterization maps benchmark → per-count results: entry n-1
	// holds the per-instance results of n co-located copies.
	Characterization map[string][][]InstanceResult
	// PowerWatts maps benchmark → wall power per co-location count.
	PowerWatts map[string][]float64
	// Pairs maps the n(n-1)/2 unordered benchmark pairs (15 for the
	// paper suite) → both results.
	Pairs map[[2]string][2]InstanceResult
	// Container, Optimization and Overhead map benchmark → their rows.
	Container    map[string]ContainerResult
	Optimization map[string]OptimizationResult
	Overhead     map[string]OverheadResult
}

// RunSuiteGrid expands the paper's complete evaluation — methodology ×
// characterization sweeps × co-location pairs × container × frame-copy
// optimization × framework overhead, over every benchmark of the
// selected suite (cfg.Profiles; the paper's six by default) — into
// one flat trial grid and executes it on the parallel runner. Trials
// with identical keys (e.g. the single-instance human baseline that
// several experiments share) run once and fan out to every consumer.
func RunSuiteGrid(cfg ExperimentConfig) SuiteGridResult {
	out, trials, finishers := suiteGridPlan(cfg)
	all := RunTrials(trials, cfg)
	for _, fin := range finishers {
		fin(all)
	}
	return *out
}

// SuiteGridTrials is the grid's deduplicated flat trial list without
// executing it — the benchmark service lowers "grid" specs through this
// so the server runs exactly the batch the CLI would.
func SuiteGridTrials(cfg ExperimentConfig) []exp.Trial {
	_, trials, _ := suiteGridPlan(cfg)
	return trials
}

// suiteGridPlan builds the grid: the (empty) result holder, the
// deduplicated trial list, and one finisher per constituent experiment
// that folds that experiment's rows into the holder once results exist.
// Dedup keys on exp.Trial.Key, so a trial two experiments both plan
// runs once for both.
func suiteGridPlan(cfg ExperimentConfig) (*SuiteGridResult, []exp.Trial, []func(all [][]TrialResult)) {
	if cfg.MaxInstances < 1 {
		cfg.MaxInstances = 1
	}
	out := &SuiteGridResult{
		Methodology:      map[string][]MethodologyResult{},
		Characterization: map[string][][]InstanceResult{},
		PowerWatts:       map[string][]float64{},
		Pairs:            map[[2]string][2]InstanceResult{},
		Container:        map[string]ContainerResult{},
		Optimization:     map[string]OptimizationResult{},
		Overhead:         map[string]OverheadResult{},
	}

	var trials []exp.Trial
	index := map[string]int{}
	add := func(t exp.Trial) int {
		k := t.Key()
		if i, ok := index[k]; ok {
			// Deduplicated trials run once for all consumers; if any
			// consumer needs the executed system, the shared run keeps it.
			trials[i].KeepSystem = trials[i].KeepSystem || t.KeepSystem
			return i
		}
		index[k] = len(trials)
		trials = append(trials, t)
		return len(trials) - 1
	}
	var finishers []func(all [][]TrialResult)
	plan := func(ts []exp.Trial, fin func(res [][]TrialResult)) {
		idxs := make([]int, len(ts))
		for i, t := range ts {
			idxs[i] = add(t)
		}
		finishers = append(finishers, func(all [][]TrialResult) {
			sel := make([][]TrialResult, len(idxs))
			for i, j := range idxs {
				sel[i] = all[j]
			}
			fin(sel)
		})
	}

	suite := cfg.suite()
	byName := make(map[string]app.Profile, len(suite))
	for _, prof := range suite {
		byName[prof.Name] = prof
	}
	for _, prof := range suite {
		prof := prof
		name := prof.Name

		plan(methodologyTrials(prof, cfg), func(res [][]TrialResult) {
			out.Methodology[name] = finishMethodology(prof, res)
		})

		out.Characterization[name] = make([][]InstanceResult, cfg.MaxInstances)
		out.PowerWatts[name] = make([]float64, cfg.MaxInstances)
		for n := 1; n <= cfg.MaxInstances; n++ {
			n := n
			plan([]exp.Trial{characterizationTrial(prof, n, exp.DriverHuman, cfg)}, func(res [][]TrialResult) {
				out.Characterization[name][n-1] = mergeInstances(res[0])
				out.PowerWatts[name][n-1] = exp.MeanOf(res[0], func(r TrialResult) float64 { return r.PowerWatts })
			})
		}

		plan(containerTrials(prof, cfg), func(res [][]TrialResult) {
			out.Container[name] = finishContainer(prof, res)
		})
		plan(optimizationTrials(prof, cfg), func(res [][]TrialResult) {
			out.Optimization[name] = finishOptimization(prof, res)
		})
		plan(overheadTrials(prof, cfg), func(res [][]TrialResult) {
			out.Overhead[name] = finishOverhead(prof, res)
		})
	}

	for _, pairNames := range SortedPairNamesOf(suite) {
		pairNames := pairNames
		a, b := byName[pairNames[0]], byName[pairNames[1]]
		plan([]exp.Trial{pairTrial(a, b, cfg)}, func(res [][]TrialResult) {
			merged := mergeInstances(res[0])
			out.Pairs[pairNames] = [2]InstanceResult{merged[0], merged[1]}
		})
	}

	return out, trials, finishers
}

// ---------------------------------------------------------------------------
// Presentation helpers

// FormatTable renders rows with a header as an aligned text table
// (thin wrapper over stats.Table, kept for the existing callers).
func FormatTable(header []string, rows [][]string) string {
	t := stats.NewTable(header...)
	for _, r := range rows {
		t.Row(r...)
	}
	return t.String()
}

// SortedPairNames lists the 15 unordered benchmark pairs of Figure 18
// (the paper suite).
func SortedPairNames() [][2]string {
	return SortedPairNamesOf(app.PaperSuite())
}

// SortedPairNamesOf lists the n(n-1)/2 unordered pairs of the given
// workload set, sorted by name.
func SortedPairNamesOf(suite []app.Profile) [][2]string {
	var out [][2]string
	for i := 0; i < len(suite); i++ {
		for j := i + 1; j < len(suite); j++ {
			out = append(out, [2]string{suite[i].Name, suite[j].Name})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}
