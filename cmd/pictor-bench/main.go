// Command pictor-bench regenerates any table or figure from the
// paper's evaluation.
//
// Usage:
//
//	pictor-bench -exp fig10 [-seconds 60] [-seed 1] [-parallel 8] [-reps 3]
//	pictor-bench -exp grid [-profiles STK,CAD,VV]
//	pictor-bench -exp fleet -machines 4 -policy binpack [-mix heavy] [-requests 16] [-profiles all]
//	pictor-bench -exp churn -machines 4 -rate 1.6 -duration 5 -epochs 10 [-migrate] [-cores 8,4]
//	pictor-bench -exp faults -machines 5 -cores 8,8,4 -mtbf 5 -mttr 1 -retries 3 -backoff 1 -degrade
//	pictor-bench -exp churn -machines 1000 -rate 5000 -epochs 20 -fidelity 8 [-occupancy]
//	pictor-bench -exp churn -machines 10000 -rate 10000 -schedule diurnal -peak 20000 -period 70 -epochs 70 -duration 1 -fidelity 0 -stream
//	pictor-bench -exp all
//
// Experiment ids: tab2 tab3 tab4 fig6 fig7 overhead fig8 fig9 fig10
// fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21
// fig22 grid fleet churn faults. "grid" runs the complete evaluation as
// one flat trial grid on the parallel experiment runner; "fleet" goes
// beyond the paper's single server and consolidates an instance-request
// stream across a multi-machine fleet under every placement policy;
// "churn" replaces the one-shot stream with a Poisson arrival process
// (exponential session lengths, departures) over an optionally
// heterogeneous fleet and compares static placement against RTT-driven
// migration; "faults" injects deterministic machine crashes into the
// churn simulation (-mtbf/-mttr, defaulting to 5/1) and compares
// drop-on-failure against session failover with retry/backoff
// (-retries/-backoff) and brown-out QoS tiers (-degrade). See the
// generated EXPERIMENTS.md for the full mode table.
//
// -fidelity N keeps machines [0, N) on full per-frame simulation and
// runs the rest of the fleet on the calibrated surrogate engine (churn
// and faults; -1 = full fidelity everywhere), scaling churn sweeps to
// hundreds of thousands of sessions; -occupancy records per-(machine,
// epoch) occupancy rows in the detailed table.
//
// -schedule bends the churn arrival rate over the horizon: "diurnal"
// sweeps a sinusoidal day curve from -rate (the trough) to -peak and
// back every -period epochs; "flash" holds -rate everywhere except a
// -period-wide spike window at -peak. -stream switches churn results
// to the aggregate-only streaming sink — per-epoch rows are observed
// and dropped as epochs close, so a million-session diurnal sweep
// reports its horizon rollups in O(machines) memory.
//
// -profiles selects the workload set every experiment sweeps: "" keeps
// the paper's Table-2 six, "all" selects every registered profile
// (including the extended CAD, VV and CZ scenario families), and a
// comma-separated name list picks a subset.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pictor/internal/agent"
	"pictor/internal/app"
	"pictor/internal/core"
	"pictor/internal/exp"
	"pictor/internal/fleet"
	"pictor/internal/sim"
	"pictor/internal/trace"
)

func main() {
	seconds := flag.Float64("seconds", 45, "measurement window (simulated seconds; 0 = the 45 s default)")
	seed := flag.Int64("seed", 1, "simulation seed (0 switches to per-trial derived seeds)")
	instances := flag.Int("max-instances", 4, "sweep upper bound for figs 10–17")
	parallel := flag.Int("parallel", 0, "experiment-runner workers (0 = all cores); applies to batched experiments (grid, sweeps, multi-trial figures) and across -reps")
	reps := flag.Int("reps", 1, "repetitions per trial with derived seeds")
	profiles := flag.String("profiles", "", fmt.Sprintf("workload set: comma-separated profile names, \"all\" for every registered profile, empty for the paper's six (registered: %s)", strings.Join(app.Names(), ",")))

	sf := newSpecFlags(flag.CommandLine)

	// The dispatch registry is built before -exp so its usage string —
	// and the generated EXPERIMENTS.md table — are derived from the
	// registry itself and cannot drift from the vocabulary (the fleet,
	// churn and faults runners read the flag values only when invoked,
	// after flag.Parse below).
	all := experimentRegistry(sf)
	order := []string{"tab2", "tab4", "fig6", "tab3", "fig7", "overhead",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22"}

	expID := flag.String("exp", "all", fmt.Sprintf("experiment id (%s) or 'all'", strings.Join(experimentIDs(all), ", ")))
	flag.Parse()

	if _, err := app.Resolve(*profiles); err != nil {
		fatalf("-profiles: %v", err)
	}

	cfg := core.DefaultExperimentConfig()
	// Every experiment's windows pass Normalize's rule before anything
	// runs: a paper experiment never reaches Normalize otherwise.
	var err error
	if cfg.Seconds, cfg.WarmupSeconds, err = core.NormalizeWindows(*seconds, cfg.WarmupSeconds); err != nil {
		fatalf("%v", err)
	}
	cfg.Seed = *seed
	cfg.MaxInstances = *instances
	if cfg.MaxInstances < 1 {
		cfg.MaxInstances = 1
	}
	cfg.Parallel = *parallel
	cfg.Reps = *reps
	cfg.Profiles = *profiles

	id := strings.ToLower(*expID)
	if id == "all" {
		for _, e := range order {
			banner(e)
			all[e].run(cfg)
		}
		return
	}
	run, ok := all[id]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
		os.Exit(2)
	}
	banner(id)
	run.run(cfg)
}

func banner(id string) { fmt.Printf("\n========== %s ==========\n", id) }

// experiment is one dispatchable -exp mode: its runner plus the
// one-line description the usage string and the generated
// EXPERIMENTS.md table share.
type experiment struct {
	desc string
	run  func(core.ExperimentConfig)
}

// experimentRegistry builds the -exp dispatch registry. The fleet,
// churn and faults experiments run the spec sf's flags build, so the
// registry — and everything generated from it — lives in one place.
func experimentRegistry(sf *specFlags) map[string]experiment {
	specRun := func(kind string) func(core.ExperimentConfig) {
		return func(cfg core.ExperimentConfig) { sf.run(kind, cfg) }
	}
	return map[string]experiment{
		"tab2":     {"Table 2: the benchmark suite (application areas, sources)", tab2},
		"tab3":     {"Table 3: mean-RTT error of each driving methodology vs the human baseline", tab3},
		"tab4":     {"Table 4: feature matrix vs prior benchmarking frameworks", tab4},
		"fig6":     {"Figure 6: RTT distributions per benchmark under each methodology", fig6},
		"fig7":     {"Figure 7: intelligent-client inference cost (CV, RNN, APM)", fig7},
		"overhead": {"Tracing overhead: native vs traced vs single-buffered FPS", overhead},
		"fig8":     {"Figure 8: CPU/GPU utilization and memory footprints", fig8},
		"fig9":     {"Figure 9: network and PCIe bandwidth per benchmark", fig9},
		"fig10":    {"Figure 10: server/client FPS under co-location (1..max instances)", fig10},
		"fig11":    {"Figure 11: client-side stage times under co-location", fig11},
		"fig12":    {"Figure 12: server pipeline stage times under co-location", fig12},
		"fig13":    {"Figure 13: interposer stage times under co-location", fig13},
		"fig14":    {"Figure 14: top-down cycle breakdown and IPC under co-location", fig14},
		"fig15":    {"Figure 15: L3 miss rate under co-location", fig15},
		"fig16":    {"Figure 16: GPU L2/texture miss rates under co-location", fig16},
		"fig17":    {"Figure 17: per-instance power draw under consolidation", fig17},
		"fig18":    {"Figure 18: pairwise co-location QoS (which pairs hold 25 FPS)", fig18},
		"fig19":    {"Figure 19: D2 interference detail (FPS loss, cache pressure)", fig19},
		"fig20":    {"Figure 20: containerization overhead (FPS, RTT, readback)", fig20},
		"fig21":    {"Figure 21: frame-copy optimization (FC stage time)", fig21},
		"fig22":    {"Figure 22: optimization gains (server/client FPS, RTT)", fig22},
		"grid":     {"The complete evaluation as one flat trial grid on the parallel runner", grid},
		"fleet":    {"Multi-machine consolidation: one request stream under every placement policy", specRun(core.SpecFleet)},
		"churn":    {"Epoch-based churn (Poisson arrivals, departures): static vs RTT-driven migration; supports rate schedules, fidelity tiers, occupancy detail and streaming rollups", specRun(core.SpecChurn)},
		"faults":   {"Machine crash injection: healthy vs drop-on-failure vs retry+degrade failover; supports rate schedules, fidelity tiers, occupancy detail and streaming rollups", specRun(core.SpecFaults)},
	}
}

// experimentIDs lists the -exp vocabulary in natural order (fig6 before
// fig10), derived from the dispatch registry itself so the usage string
// can never omit an experiment the binary actually accepts.
func experimentIDs(all map[string]experiment) []string {
	ids := make([]string, 0, len(all))
	for id := range all {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return naturalLess(ids[i], ids[j]) })
	return ids
}

// naturalLess orders strings comparing embedded digit runs numerically.
func naturalLess(a, b string) bool {
	for a != "" && b != "" {
		ha, ta := chunk(a)
		hb, tb := chunk(b)
		if ha != hb {
			na, errA := strconv.Atoi(ha)
			nb, errB := strconv.Atoi(hb)
			if errA == nil && errB == nil {
				return na < nb
			}
			return ha < hb
		}
		a, b = ta, tb
	}
	return a < b
}

// chunk splits off the leading run of digits or of non-digits.
func chunk(s string) (head, tail string) {
	digit := func(c byte) bool { return c >= '0' && c <= '9' }
	isDigit := digit(s[0])
	i := 1
	for i < len(s) && digit(s[i]) == isDigit {
		i++
	}
	return s[:i], s[i:]
}

func tab2(cfg core.ExperimentConfig) {
	var rows [][]string
	for _, p := range suiteOf(cfg) {
		src := "open-source"
		if p.ClosedSource {
			src = "closed-source"
		}
		rows = append(rows, []string{p.Genre, p.FullName + " (" + p.Name + ")", src})
	}
	fmt.Print(core.FormatTable([]string{"Application Area", "Benchmark", "Source"}, rows))
}

func tab4(core.ExperimentConfig) { fmt.Print(core.FeatureMatrix()) }

func fig6(cfg core.ExperimentConfig) {
	for _, prof := range suiteOf(cfg) {
		for _, r := range core.RunMethodologyComparison(prof, cfg) {
			fmt.Printf("%-4s %-10s mean %6.1f  p1 %6.1f  p25 %6.1f  p75 %6.1f  p99 %6.1f ms\n",
				prof.Name, r.Method, r.RTT.Mean, r.RTT.P1, r.RTT.P25, r.RTT.P75, r.RTT.P99)
		}
	}
}

func tab3(cfg core.ExperimentConfig) {
	var rows [][]string
	avg := map[string]float64{}
	for _, prof := range suiteOf(cfg) {
		rs := core.RunMethodologyComparison(prof, cfg)
		row := []string{prof.Name}
		for _, r := range rs[1:] {
			row = append(row, fmt.Sprintf("%.1f%%", r.ErrVsHuman))
			avg[r.Method] += r.ErrVsHuman / float64(len(suiteOf(cfg)))
		}
		rows = append(rows, row)
	}
	fmt.Print(core.FormatTable([]string{"bench", "Pictor-IC", "DeskBench", "Chen", "SlowMotion"}, rows))
	fmt.Printf("avg: IC %.1f%%  DB %.1f%%  CH %.1f%%  SM %.1f%%  (paper: 1.6 / 11.6 / 30.0 / 27.9)\n",
		avg["Pictor-IC"], avg["DeskBench"], avg["Chen"], avg["SlowMotion"])
}

func fig7(cfg core.ExperimentConfig) {
	for _, prof := range suiteOf(cfg) {
		models, _, _ := core.TrainedModels(prof)
		cl := core.NewCluster(core.Options{Seed: cfg.Seed})
		cl.AddInstance(core.NewInstanceConfig(prof, core.ICDriver(models)))
		cl.Run(sim.DurationOfSeconds(cfg.WarmupSeconds), sim.DurationOfSeconds(cfg.Seconds))
		ic := cl.Instances[0].Driver.(*agent.IntelligentClient)
		fmt.Printf("%-4s CV %6.1f ms   RNN %5.2f ms   APM %5.0f\n",
			prof.Name, ic.CVTimes.Mean(), ic.RNNTimes.Mean(), ic.APM())
	}
}

func overhead(cfg core.ExperimentConfig) {
	for _, prof := range suiteOf(cfg) {
		r := core.RunOverhead(prof, cfg)
		fmt.Printf("%-4s native %5.1f fps  traced %5.1f (%+.1f%%)  single-buffered %5.1f (%+.1f%%)\n",
			r.Benchmark, r.FPSNoTrace, r.FPSTraced, r.OverheadPct, r.FPSTracedSB, r.OverheadSBPct)
	}
}

func fig8(cfg core.ExperimentConfig) {
	for _, prof := range suiteOf(cfg) {
		r := core.RunCharacterization(prof, 1, exp.DriverHuman, cfg)[0]
		fmt.Printf("%-4s app CPU %5.0f%%  VNC CPU %5.0f%%  GPU %4.1f%%  mem %4.0fMB  gpuMem %3.0fMB\n",
			r.Benchmark, r.AppCPUUtil, r.VNCCPUUtil, r.GPUUtil, r.FootprintMB, r.GPUMemoryMB)
	}
}

func fig9(cfg core.ExperimentConfig) {
	for _, prof := range suiteOf(cfg) {
		r := core.RunCharacterization(prof, 1, exp.DriverHuman, cfg)[0]
		fmt.Printf("%-4s net %4.0f Mbps down / %4.1f up   PCIe %6.1f MB/s from-GPU / %6.1f to-GPU\n",
			r.Benchmark, r.NetDownMbps, r.NetUpMbps, r.PCIeFromGPU, r.PCIeToGPU)
	}
}

func sweepPrint(cfg core.ExperimentConfig, format func(r core.InstanceResult) string) {
	for _, prof := range suiteOf(cfg) {
		fmt.Printf("%-4s", prof.Name)
		rs, _ := core.RunCharacterizationSweep(prof, cfg.MaxInstances, exp.DriverHuman, cfg)
		for n, r := range rs {
			fmt.Printf("  [%d] %s", n+1, format(r[0]))
		}
		fmt.Println()
	}
}

func fig10(cfg core.ExperimentConfig) {
	sweepPrint(cfg, func(r core.InstanceResult) string {
		return fmt.Sprintf("srv %5.1f cli %5.1f", r.ServerFPS, r.ClientFPS)
	})
}

func fig11(cfg core.ExperimentConfig) {
	sweepPrint(cfg, func(r core.InstanceResult) string {
		return fmt.Sprintf("CS %4.1f srv %5.1f SS %5.1f",
			r.Stages[trace.StageCS].Mean, r.ServerTimeMs(), r.Stages[trace.StageSS].Mean)
	})
}

func fig12(cfg core.ExperimentConfig) {
	sweepPrint(cfg, func(r core.InstanceResult) string {
		return fmt.Sprintf("PS %4.1f app %5.1f AS %4.1f CP %5.1f",
			r.Stages[trace.StagePS].Mean, r.AppTimeMs(),
			r.Stages[trace.StageAS].Mean, r.Stages[trace.StageCP].Mean)
	})
}

func fig13(cfg core.ExperimentConfig) {
	sweepPrint(cfg, func(r core.InstanceResult) string {
		return fmt.Sprintf("AL %5.1f FC %5.1f RD %5.1f",
			r.Stages[trace.StageAL].Mean, r.Stages[trace.StageFC].Mean, r.Stages[trace.StageRD].Mean)
	})
}

func fig14(cfg core.ExperimentConfig) {
	sweepPrint(cfg, func(r core.InstanceResult) string {
		return fmt.Sprintf("BE %4.1f%% IPC %.2f", r.CPUTopDown.BackEnd*100, r.CPUTopDown.IPC)
	})
}

func fig15(cfg core.ExperimentConfig) {
	sweepPrint(cfg, func(r core.InstanceResult) string {
		return fmt.Sprintf("%4.1f%%", r.L3MissRate*100)
	})
}

func fig16(cfg core.ExperimentConfig) {
	sweepPrint(cfg, func(r core.InstanceResult) string {
		if r.GPUL2Miss < 0 {
			return "N/A"
		}
		return fmt.Sprintf("L2 %4.1f%% tex %4.1f%%", r.GPUL2Miss*100, r.GPUTexMiss*100)
	})
}

func fig17(cfg core.ExperimentConfig) {
	for _, prof := range suiteOf(cfg) {
		fmt.Printf("%-4s", prof.Name)
		var first float64
		_, watts := core.RunCharacterizationSweep(prof, cfg.MaxInstances, exp.DriverHuman, cfg)
		for i, w := range watts {
			per := w / float64(i+1)
			if i == 0 {
				first = per
			}
			fmt.Printf("  [%d] %5.1fW (%+5.1f%%)", i+1, per, (per-first)/first*100)
		}
		fmt.Println()
	}
}

func fig18(cfg core.ExperimentConfig) {
	ok := 0
	pairs := core.SortedPairNamesOf(suiteOf(cfg))
	for _, pair := range pairs {
		a, _ := app.ByName(pair[0])
		b, _ := app.ByName(pair[1])
		ra, rb := core.RunPair(a, b, cfg)
		if ra.ClientFPS >= 25 && rb.ClientFPS >= 25 {
			ok++
		}
		fmt.Printf("%-4s+%-4s  %5.1f / %5.1f fps\n", pair[0], pair[1], ra.ClientFPS, rb.ClientFPS)
	}
	fmt.Printf("%d of %d pairs ≥ 25 fps for both (paper: 11 of 15)\n", ok, len(pairs))
}

func fig19(cfg core.ExperimentConfig) {
	d2 := app.D2()
	solo := core.RunCharacterization(d2, 1, exp.DriverHuman, cfg)[0]
	for _, prof := range suiteOf(cfg) {
		if prof.Name == d2.Name {
			continue
		}
		rd2, _ := core.RunPair(d2, prof, cfg)
		fmt.Printf("D2 + %-4s  fps loss %5.1f%%   L3 +%4.1fpt   GPU L2 +%4.1fpt\n",
			prof.Name,
			(solo.ServerFPS-rd2.ServerFPS)/solo.ServerFPS*100,
			(rd2.L3MissRate-solo.L3MissRate)*100,
			(rd2.GPUL2Miss-solo.GPUL2Miss)*100)
	}
}

func fig20(cfg core.ExperimentConfig) {
	for _, prof := range suiteOf(cfg) {
		r := core.RunContainerOverhead(prof, cfg)
		fmt.Printf("%-4s FPS %+5.1f%%   RTT %+5.1f%%   RD %+5.1f%%\n",
			r.Benchmark, r.FPSOverheadPct, r.RTTOverheadPct, r.RDOverheadPct)
	}
}

func fig21(cfg core.ExperimentConfig) {
	for _, prof := range suiteOf(cfg) {
		r := core.RunOptimization(prof, cfg)
		fmt.Printf("%-4s FC %5.1f ms → %4.1f ms (halt removed: %4.1f ms)\n",
			r.Benchmark, r.BaseFCMs, r.OptFCMs, r.BaseFCMs-r.OptFCMs)
	}
}

func fig22(cfg core.ExperimentConfig) {
	var sGain, cGain, rttRed float64
	for _, prof := range suiteOf(cfg) {
		r := core.RunOptimization(prof, cfg)
		sGain += r.ServerFPSGain / float64(len(suiteOf(cfg)))
		cGain += r.ClientFPSGain / float64(len(suiteOf(cfg)))
		rttRed += r.RTTReduction / float64(len(suiteOf(cfg)))
		fmt.Printf("%-4s server %+6.1f%%   client %+6.1f%%   RTT %+6.1f%%\n",
			r.Benchmark, r.ServerFPSGain, r.ClientFPSGain, -r.RTTReduction)
	}
	fmt.Printf("avg: server %+.1f%% (paper +57.7%%), client %+.1f%% (paper +7.4%%), RTT %+.1f%% (paper −8.5%%)\n",
		sGain, cGain, -rttRed)
}

// grid runs the paper's complete evaluation as one flat trial grid on
// the parallel experiment runner and prints a compact summary of every
// experiment family.
func grid(cfg core.ExperimentConfig) {
	fmt.Printf("running the full suite grid: %d workers, %d rep(s), %gs windows\n",
		exp.EffectiveParallel(cfg.Parallel), exp.EffectiveReps(cfg.Reps), cfg.Seconds)
	start := time.Now()
	g := core.RunSuiteGrid(cfg)
	elapsed := time.Since(start)

	fmt.Printf("\nmethodology (mean-RTT error vs human):\n")
	for _, prof := range suiteOf(cfg) {
		rows := g.Methodology[prof.Name]
		fmt.Printf("  %-4s", prof.Name)
		for _, r := range rows[1:] {
			fmt.Printf("  %s %5.1f%%", r.Method, r.ErrVsHuman)
		}
		fmt.Println()
	}

	fmt.Printf("\ncharacterization (client FPS by co-location count):\n")
	for _, prof := range suiteOf(cfg) {
		fmt.Printf("  %-4s", prof.Name)
		for n, rs := range g.Characterization[prof.Name] {
			fmt.Printf("  [%d] %5.1f", n+1, rs[0].ClientFPS)
		}
		fmt.Printf("   power/inst [%d]: %.1fW\n", cfg.MaxInstances,
			g.PowerWatts[prof.Name][cfg.MaxInstances-1]/float64(cfg.MaxInstances))
	}

	okPairs := 0
	for _, rs := range g.Pairs {
		if rs[0].ClientFPS >= 25 && rs[1].ClientFPS >= 25 {
			okPairs++
		}
	}
	fmt.Printf("\npairs: %d of %d meet 25-FPS QoS for both\n", okPairs, len(g.Pairs))

	fmt.Printf("\nper-benchmark rollups:\n")
	for _, prof := range suiteOf(cfg) {
		c := g.Container[prof.Name]
		o := g.Optimization[prof.Name]
		v := g.Overhead[prof.Name]
		fmt.Printf("  %-4s container FPS %+5.1f%%   opt server FPS %+6.1f%%   tracing overhead %4.1f%%\n",
			prof.Name, c.FPSOverheadPct, o.ServerFPSGain, v.OverheadPct)
	}
	fmt.Printf("\ngrid complete in %s (wall)\n", elapsed.Round(time.Millisecond))
}

// fatalf prints an actionable flag-validation error and exits 2 (the
// same exit the unknown-experiment path uses).
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// suiteOf resolves the validated -profiles selection (main exits on an
// invalid spec before any experiment runs).
func suiteOf(cfg core.ExperimentConfig) []app.Profile {
	ps, err := app.Resolve(cfg.Profiles)
	if err != nil {
		fatalf("-profiles: %v", err)
	}
	return ps
}

// coreDesc describes a fleet's machine sizing for banners.
func coreDesc(cores string) string {
	if cores != "" {
		return "cores " + cores
	}
	return fmt.Sprintf("%d cores", fleet.DefaultMachineCores)
}

// profilesDesc describes a workload selection for banners.
func profilesDesc(profiles string) string {
	switch strings.ToLower(strings.TrimSpace(profiles)) {
	case "":
		return "the paper suite"
	case "all":
		return fmt.Sprintf("all %d registered profiles", len(app.Names()))
	}
	return "profiles " + profiles
}

// specFlags holds the flags that shape the fleet, churn and faults
// experiments.
type specFlags struct {
	machines, requests, epochs, retries, backoff, fidelity, period int
	policy, mix, cores, schedule                                   string
	rate, duration, peak, mtbf, mttr                               float64
	migrate, degrade, occupancy, stream                            bool
}

// newSpecFlags registers the fleet, churn and faults flags on fs.
func newSpecFlags(fs *flag.FlagSet) *specFlags {
	f := &specFlags{}
	fs.IntVar(&f.machines, "machines", 4, "fleet/churn experiments: server machine count")
	fs.StringVar(&f.policy, "policy", fleet.PolicyBinPack, fmt.Sprintf("fleet experiment: placement policy to detail %v", fleet.PolicyNames()))
	fs.StringVar(&f.mix, "mix", string(fleet.MixSuite), fmt.Sprintf("fleet/churn experiments: arrival mix %v", fleet.Mixes()))
	fs.IntVar(&f.requests, "requests", 0, "fleet experiment: instance-request stream length (0 = 3 per machine)")
	fs.StringVar(&f.cores, "cores", "", "fleet/churn experiments: per-machine core classes, comma-separated and cycled (e.g. 8,4); empty = all 8")
	fs.Float64Var(&f.rate, "rate", 1.6, "churn experiment: mean Poisson arrivals per epoch")
	fs.Float64Var(&f.duration, "duration", 5, "churn experiment: mean session length in epochs (exponential)")
	fs.IntVar(&f.epochs, "epochs", 10, "churn experiment: epoch count")
	fs.BoolVar(&f.migrate, "migrate", true, "churn experiment: enable the RTT-driven migration controller in the detailed run")
	fs.StringVar(&f.schedule, "schedule", "", fmt.Sprintf("churn/faults experiments: arrival-rate schedule %v (empty = constant)", fleet.Schedules()))
	fs.Float64Var(&f.peak, "peak", 0, "churn/faults experiments: diurnal peak / flash spike arrival rate (sessions/epoch; requires a non-constant -schedule)")
	fs.IntVar(&f.period, "period", 0, "churn/faults experiments: diurnal period / flash spike width in epochs (requires a non-constant -schedule)")
	fs.BoolVar(&f.stream, "stream", false, "churn/faults experiments: stream per-epoch rows through the aggregate-only sink (rollups only, O(machines) memory — for million-session sweeps)")
	fs.Float64Var(&f.mtbf, "mtbf", 0, "churn/faults experiments: mean epochs between machine crashes (0 = no faults for churn, 5 for faults)")
	fs.Float64Var(&f.mttr, "mttr", 0, "churn/faults experiments: mean epochs to repair a crashed machine (0 = 1 for faults; requires -mtbf)")
	fs.IntVar(&f.retries, "retries", 0, "churn/faults experiments: failover retry attempts per evicted/rejected session (0 = drop on failure)")
	fs.IntVar(&f.backoff, "backoff", 1, "churn/faults experiments: base retry backoff in epochs (doubles per attempt)")
	fs.BoolVar(&f.degrade, "degrade", false, "churn/faults experiments: enable brown-out QoS tiers (degrade resolution before evicting)")
	fs.IntVar(&f.fidelity, "fidelity", -1, "churn/faults experiments: full-simulation machine cohort size; machines beyond it run the calibrated surrogate engine (-1 = full fidelity everywhere, 0 = all-surrogate)")
	fs.BoolVar(&f.occupancy, "occupancy", false, "churn/faults experiments: record and print per-(machine, epoch) occupancy rows (placement heatmap feed)")
	return f
}

// spec builds the experiment spec of one fleet-scope kind from the
// flags; cfg carries the shared -seconds, -seed, -reps and -profiles.
// A fleet spec carries the fleet-scope knobs only (Normalize rejects
// churn knobs on it). The spec is not normalized: core.RunSpec applies
// the same defaults and validation the pictor-server control plane
// does, so the two frontends cannot drift.
func (f *specFlags) spec(kind string, cfg core.ExperimentConfig) core.ExperimentSpec {
	s := core.ExperimentSpec{
		Kind: kind, Profiles: cfg.Profiles,
		Seconds: cfg.Seconds, Warmup: cfg.WarmupSeconds, Seed: &cfg.Seed, Reps: cfg.Reps,
		Machines: f.machines, Policy: f.policy, Mix: f.mix, CoreClasses: f.cores,
	}
	if kind == core.SpecFleet {
		s.Requests = f.requests
		return s
	}
	migrate := f.migrate
	s.Rate, s.Duration, s.Epochs, s.Migrate = f.rate, f.duration, f.epochs, &migrate
	s.MTBF, s.MTTR, s.Retries, s.Backoff, s.Degrade = f.mtbf, f.mttr, f.retries, f.backoff, f.degrade
	s.Schedule, s.Peak, s.Period, s.Stream = f.schedule, f.peak, f.period, f.stream
	s.Occupancy = f.occupancy
	// -fidelity -1 is the CLI's "unset": full per-frame simulation
	// everywhere. Any value >= 0 enables the surrogate tail with that
	// full-simulation cohort size.
	if f.fidelity >= 0 {
		fidelity := f.fidelity
		s.Fidelity = &fidelity
	}
	return s
}

// run is the fleet, churn and faults experiment: build the spec from
// the flags, print what will run, run it through core.RunSpec and print
// the outcome. An invalid spec exits 2 before anything runs.
func (f *specFlags) run(kind string, cfg core.ExperimentConfig) {
	spec, err := f.spec(kind, cfg).Normalize()
	if err != nil {
		fatalf("%v", err)
	}
	printHeader(spec, cfg.Parallel)
	start := time.Now()
	out, err := core.RunSpec(spec, cfg.Parallel)
	if err != nil {
		fatalf("%v", err)
	}
	printOutcome(out)
	fmt.Printf("complete in %s (wall)\n", time.Since(start).Round(time.Millisecond))
}

// printHeader describes a normalized fleet, churn or faults spec: the
// fleet, the workload and the knobs that shape the run.
func printHeader(s core.ExperimentSpec, parallel int) {
	if s.Kind == core.SpecFleet {
		fmt.Printf("fleet: %d machines × %s, %d requests (%s mix over %s), %d workers, %d rep(s)\n\n",
			s.Machines, coreDesc(s.CoreClasses), s.Requests, s.Mix, profilesDesc(s.Profiles),
			exp.EffectiveParallel(parallel), s.Reps)
		return
	}
	mode := fmt.Sprintf("MTBF %g MTTR %g", s.MTBF, s.MTTR)
	if s.Kind == core.SpecChurn {
		mode = "static"
		if *s.Migrate {
			mode = "RTT-driven migration"
		}
		if s.Shape().Scheduled() {
			mode += fmt.Sprintf(", %s schedule (peak %g, period %d)", s.Schedule, s.Peak, s.Period)
		}
		if s.MTBF > 0 {
			mode += fmt.Sprintf(", faults mtbf=%g mttr=%g", s.MTBF, s.MTTR)
		}
		if s.Fidelity != nil {
			mode += fmt.Sprintf(", surrogate tail (full-sim cohort %d)", *s.Fidelity)
		}
		if s.Stream {
			mode += ", streaming rollups"
		}
	}
	fmt.Printf("%s: %d machines × %s, %s policy, %s mix over %s, rate %g/epoch, mean session %g epochs, %d epochs, %s\n\n",
		s.Kind, s.Machines, coreDesc(s.CoreClasses), s.Policy, s.Mix, profilesDesc(s.Profiles),
		s.Rate, s.Duration, s.Epochs, mode)
}

// printOutcome prints a fleet, churn or faults outcome: the detailed
// view of one variant — the -policy placement, the -migrate side, or
// the resilient run — then the comparison table of the whole batch.
func printOutcome(out core.SpecOutcome) {
	s := out.Spec
	if s.Kind == core.SpecFleet {
		policy := s.Policy
		if policy == "" {
			policy = fleet.PolicyRoundRobin
		}
		for _, r := range out.Fleet {
			if r.Policy == policy {
				printFleetDetail(r)
			}
		}
		fmt.Printf("\npolicy comparison (same fleet, same stream):\n")
		fmt.Print(core.FleetComparisonTable(out.Fleet))
		return
	}
	var r core.ChurnResult
	var occupancy, comparison string
	if s.Kind == core.SpecChurn {
		r = out.Churn[0]
		if *s.Migrate {
			r = out.Churn[1]
		}
		fmt.Printf("policy %s: %d arrivals, %d departures, %d migrations, %d rejected, %d QoS violations\n",
			r.Policy, r.Arrivals, r.Departures, r.Migrations, r.Rejected, r.QoSViolations)
		occupancy = "\noccupancy (machine × epoch):\n"
		comparison = "\nstatic vs migrate (same tenant population):\n"
	} else {
		r = out.Churn[2]
		fmt.Printf("resilient run: %d crashes, %d evicted, %d retried, %d recovered, %d lost, availability %.1f%%\n",
			r.Crashes, r.Evicted, r.Retried, r.Recovered, r.Lost, 100*r.Availability)
		occupancy = "\noccupancy (machine × epoch, resilient run):\n"
		comparison = "\nhealthy vs drop-on-failure vs retry+degrade (same tenants, same failure schedule):\n"
	}
	fmt.Print(core.ChurnTable(r))
	// Streamed runs drop the occupancy rows as epochs close; only the
	// table's rollup line survives.
	if s.Occupancy && !s.Stream {
		fmt.Print(occupancy)
		fmt.Print(core.OccupancyTable(r))
	}
	fmt.Print(comparison)
	fmt.Print(core.ChurnComparisonTable(out.Churn))
}

// printFleetDetail prints one policy's placement machine by machine.
func printFleetDetail(r core.FleetResult) {
	fmt.Printf("policy %s: placed %d, rejected %d, QoS violations %d, fleet power %.1f W\n",
		r.Policy, r.Placed, r.Rejected, r.QoSViolations, r.TotalPowerWatts)
	for _, m := range r.Machines {
		fmt.Printf("  machine %d  (predicted %.1f cores, %.1f W)", m.Machine, m.PredictedDemand, m.PowerWatts)
		if len(m.Results) == 0 {
			fmt.Printf("  idle\n")
			continue
		}
		fmt.Printf("  RTT %.1f ms (p99 %.1f)\n", m.RTT.Mean, m.RTT.P99)
		for _, ir := range m.Results {
			qos := ""
			if ir.ClientFPS < fleet.QoSMinFPS {
				qos = "  [QoS violation]"
			}
			fmt.Printf("    %-8s srv %5.1f fps  cli %5.1f fps  RTT %6.1f ms%s\n",
				ir.Benchmark, ir.ServerFPS, ir.ClientFPS, ir.RTT.Mean, qos)
		}
	}
}
