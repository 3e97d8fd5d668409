// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each prints the regenerated rows (paper-style) on its
// first iteration; EXPERIMENTS.md records these against the published
// values. Run with:
//
//	go test -bench=. -benchmem
//
// Shapes — who wins, by what factor, where crossovers fall — are the
// reproduction target; absolute numbers come from the simulated
// testbed, not the authors' hardware.
package pictor_test

import (
	"fmt"
	"sync"
	"testing"

	"pictor/internal/agent"
	"pictor/internal/app"
	"pictor/internal/core"
	"pictor/internal/exp"
	"pictor/internal/sim"
	"pictor/internal/stats"
	"pictor/internal/trace"
	"pictor/internal/vgl"
)

// benchCfg keeps bench iterations affordable; the pictor-bench CLI runs
// the same experiments with longer windows.
func benchCfg() core.ExperimentConfig {
	return core.ExperimentConfig{WarmupSeconds: 2, Seconds: 12, Seed: 1, MaxInstances: 4}
}

var printOnce sync.Map

// printHeader emits a section banner exactly once per experiment.
func printHeader(id, title string) bool {
	if _, loaded := printOnce.LoadOrStore(id, true); loaded {
		return false
	}
	fmt.Printf("\n───── %s — %s ─────\n", id, title)
	return true
}

func BenchmarkFig06RTTDistributions(b *testing.B) {
	cfg := benchCfg()
	cfg.Seconds = 30
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig06", "RTT distributions: Human / IC / DeskBench / Chen / Slow-Motion")
		for _, prof := range app.PaperSuite() {
			rs := core.RunMethodologyComparison(prof, cfg)
			if show {
				for _, r := range rs {
					fmt.Printf("%-4s %-10s mean %6.1f  p1 %6.1f  p25 %6.1f  p75 %6.1f  p99 %6.1f ms\n",
						prof.Name, r.Method, r.RTT.Mean, r.RTT.P1, r.RTT.P25, r.RTT.P75, r.RTT.P99)
				}
			}
		}
	}
}

func BenchmarkTab03MeanRTTError(b *testing.B) {
	cfg := benchCfg()
	cfg.Seconds = 30
	for i := 0; i < b.N; i++ {
		show := printHeader("Tab03", "Mean-RTT percentage error vs human")
		var rows [][]string
		avg := map[string]float64{}
		for _, prof := range app.PaperSuite() {
			rs := core.RunMethodologyComparison(prof, cfg)
			row := []string{prof.Name}
			for _, r := range rs[1:] { // skip the human reference row
				row = append(row, fmt.Sprintf("%.1f%%", r.ErrVsHuman))
				avg[r.Method] += r.ErrVsHuman / float64(len(app.PaperSuite()))
			}
			rows = append(rows, row)
		}
		if show {
			fmt.Print(core.FormatTable([]string{"bench", "Pictor-IC", "DeskBench", "Chen", "SlowMotion"}, rows))
			fmt.Printf("avg: IC %.1f%%  DB %.1f%%  CH %.1f%%  SM %.1f%%  (paper: 1.6 / 11.6 / 30.0 / 27.9)\n",
				avg["Pictor-IC"], avg["DeskBench"], avg["Chen"], avg["SlowMotion"])
		}
	}
}

func BenchmarkFig07InferenceTime(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig07", "Intelligent client CV (CNN) and input-generation (RNN) time")
		var cvAll, rnnAll stats.Sample
		for _, prof := range app.PaperSuite() {
			models, _, _ := core.TrainedModels(prof)
			cl := core.NewCluster(core.Options{Seed: cfg.Seed})
			cl.AddInstance(core.NewInstanceConfig(prof, core.ICDriver(models)))
			cl.Run(secs(cfg.WarmupSeconds), secs(cfg.Seconds))
			ic := cl.Instances[0].Driver.(*agent.IntelligentClient)
			cvAll.Add(ic.CVTimes.Mean())
			rnnAll.Add(ic.RNNTimes.Mean())
			if show {
				fmt.Printf("%-4s CV %6.1f ms   RNN %5.2f ms   APM %5.0f\n",
					prof.Name, ic.CVTimes.Mean(), ic.RNNTimes.Mean(), ic.APM())
			}
		}
		if show {
			fmt.Printf("avg: CV %.1f ms (paper 72.7), RNN %.1f ms (paper 1.9)\n", cvAll.Mean(), rnnAll.Mean())
		}
	}
}

func BenchmarkTab05FrameworkOverhead(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Tab05", "Analysis-framework overhead (FPS loss vs native; double vs single query buffers)")
		var sum, sumSB float64
		for _, prof := range app.PaperSuite() {
			r := core.RunOverhead(prof, cfg)
			sum += r.OverheadPct / float64(len(app.PaperSuite()))
			sumSB += r.OverheadSBPct / float64(len(app.PaperSuite()))
			if show {
				fmt.Printf("%-4s native %5.1f fps  traced %5.1f (%+.1f%%)  single-buffered %5.1f (%+.1f%%)\n",
					r.Benchmark, r.FPSNoTrace, r.FPSTraced, r.OverheadPct, r.FPSTracedSB, r.OverheadSBPct)
			}
		}
		if show {
			fmt.Printf("avg overhead: %.1f%% double-buffered (paper 2.7%%), %.1f%% single (paper up to 10%%)\n", sum, sumSB)
		}
	}
}

func BenchmarkFig08Utilization(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig08", "CPU and GPU utilization per benchmark (single instance)")
		for _, prof := range app.PaperSuite() {
			r := core.RunCharacterization(prof, 1, exp.DriverHuman, cfg)[0]
			if show {
				fmt.Printf("%-4s app CPU %5.0f%%  VNC CPU %5.0f%%  GPU %4.1f%%  mem %4.0fMB  gpuMem %3.0fMB\n",
					r.Benchmark, r.AppCPUUtil, r.VNCCPUUtil, r.GPUUtil, r.FootprintMB, r.GPUMemoryMB)
			}
		}
	}
}

func BenchmarkFig09Bandwidth(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig09", "Network and PCIe bandwidth per benchmark (single instance)")
		for _, prof := range app.PaperSuite() {
			r := core.RunCharacterization(prof, 1, exp.DriverHuman, cfg)[0]
			if show {
				fmt.Printf("%-4s net %4.0f Mbps down / %4.1f up   PCIe %6.1f MB/s from-GPU / %6.1f to-GPU\n",
					r.Benchmark, r.NetDownMbps, r.NetUpMbps, r.PCIeFromGPU, r.PCIeToGPU)
			}
		}
	}
}

// sweep runs 1..MaxInstances co-located copies as one batched grid and
// returns first-instance results per count.
func sweep(prof app.Profile, cfg core.ExperimentConfig) []core.InstanceResult {
	rs, _ := core.RunCharacterizationSweep(prof, cfg.MaxInstances, exp.DriverHuman, cfg)
	out := make([]core.InstanceResult, len(rs))
	for n, r := range rs {
		out[n] = r[0]
	}
	return out
}

func BenchmarkFig10FPS(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig10", "Server and client FPS, 1–4 instances")
		for _, prof := range app.PaperSuite() {
			rs := sweep(prof, cfg)
			if show {
				fmt.Printf("%-4s", prof.Name)
				for n, r := range rs {
					fmt.Printf("  [%d] srv %5.1f cli %5.1f", n+1, r.ServerFPS, r.ClientFPS)
				}
				fmt.Println()
			}
		}
	}
}

func BenchmarkFig11RTTBreakdown(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig11", "RTT breakdown (input net / server / frame net), 1–4 instances")
		for _, prof := range app.PaperSuite() {
			rs := sweep(prof, cfg)
			if show {
				fmt.Printf("%-4s", prof.Name)
				for n, r := range rs {
					fmt.Printf("  [%d] CS %4.1f srv %5.1f SS %5.1f", n+1,
						r.Stages[trace.StageCS].Mean, r.ServerTimeMs(), r.Stages[trace.StageSS].Mean)
				}
				fmt.Println()
			}
		}
	}
}

func BenchmarkFig12ServerBreakdown(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig12", "Server-time breakdown (PS / app / AS / CP), 1–4 instances")
		for _, prof := range app.PaperSuite() {
			rs := sweep(prof, cfg)
			if show {
				fmt.Printf("%-4s", prof.Name)
				for n, r := range rs {
					fmt.Printf("  [%d] PS %4.1f app %5.1f AS %4.1f CP %5.1f", n+1,
						r.Stages[trace.StagePS].Mean, r.AppTimeMs(),
						r.Stages[trace.StageAS].Mean, r.Stages[trace.StageCP].Mean)
				}
				fmt.Println()
			}
		}
	}
}

func BenchmarkFig13AppBreakdown(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig13", "Application-time breakdown (AL / FC, with RD parallel), 1–4 instances")
		for _, prof := range app.PaperSuite() {
			rs := sweep(prof, cfg)
			if show {
				fmt.Printf("%-4s", prof.Name)
				for n, r := range rs {
					fmt.Printf("  [%d] AL %5.1f FC %5.1f RD %5.1f", n+1,
						r.Stages[trace.StageAL].Mean, r.Stages[trace.StageFC].Mean,
						r.Stages[trace.StageRD].Mean)
				}
				fmt.Println()
			}
		}
	}
}

func BenchmarkFig14TopDown(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig14", "Top-down CPU cycle breakdown, 1–4 instances")
		for _, prof := range app.PaperSuite() {
			rs := sweep(prof, cfg)
			if show {
				fmt.Printf("%-4s", prof.Name)
				for n, r := range rs {
					fmt.Printf("  [%d] BE %4.1f%% ret %4.1f%% IPC %.2f", n+1,
						r.CPUTopDown.BackEnd*100, r.CPUTopDown.Retiring*100, r.CPUTopDown.IPC)
				}
				fmt.Println()
			}
		}
	}
}

func BenchmarkFig15L3Miss(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig15", "L3 cache miss rates, 1–4 instances")
		for _, prof := range app.PaperSuite() {
			rs := sweep(prof, cfg)
			if show {
				fmt.Printf("%-4s", prof.Name)
				for n, r := range rs {
					fmt.Printf("  [%d] %4.1f%%", n+1, r.L3MissRate*100)
				}
				fmt.Println()
			}
		}
	}
}

func BenchmarkFig16GPUMiss(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig16", "GPU L2 and texture cache miss rates, 1–4 instances (0AD: N/A)")
		for _, prof := range app.PaperSuite() {
			rs := sweep(prof, cfg)
			if show {
				fmt.Printf("%-4s", prof.Name)
				for n, r := range rs {
					if r.GPUL2Miss < 0 {
						fmt.Printf("  [%d] N/A", n+1)
						continue
					}
					fmt.Printf("  [%d] L2 %4.1f%% tex %4.1f%%", n+1, r.GPUL2Miss*100, r.GPUTexMiss*100)
				}
				fmt.Println()
			}
		}
	}
}

func BenchmarkFig17Power(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig17", "Per-instance power, 1–4 instances")
		for _, prof := range app.PaperSuite() {
			_, watts := core.RunCharacterizationSweep(prof, cfg.MaxInstances, exp.DriverHuman, cfg)
			perInst := make([]float64, len(watts))
			for i, w := range watts {
				perInst[i] = w / float64(i+1)
			}
			if show {
				fmt.Printf("%-4s", prof.Name)
				for n, w := range perInst {
					fmt.Printf("  [%d] %5.1fW (%+5.1f%%)", n+1, w, (w-perInst[0])/perInst[0]*100)
				}
				fmt.Println()
			}
		}
		if show {
			fmt.Println("paper: −33% / −50% / −61% at 2 / 3 / 4 instances")
		}
	}
}

func BenchmarkFig18PairFPS(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig18", "Client FPS for the 15 benchmark pairs")
		okPairs := 0
		for _, pair := range core.SortedPairNames() {
			a, _ := app.ByName(pair[0])
			bb, _ := app.ByName(pair[1])
			ra, rb := core.RunPair(a, bb, cfg)
			if ra.ClientFPS >= 25 && rb.ClientFPS >= 25 {
				okPairs++
			}
			if show {
				fmt.Printf("%-4s+%-4s  %5.1f / %5.1f fps\n", pair[0], pair[1], ra.ClientFPS, rb.ClientFPS)
			}
		}
		if show {
			fmt.Printf("%d of 15 pairs ≥ 25 fps for both (paper: 11 of 15 ≥ 25)\n", okPairs)
		}
	}
}

func BenchmarkFig19Contentiousness(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig19", "Dota2 degradation and cache-miss growth per co-runner")
		d2 := app.D2()
		solo := core.RunCharacterization(d2, 1, exp.DriverHuman, cfg)[0]
		for _, prof := range app.PaperSuite() {
			if prof.Name == d2.Name {
				continue
			}
			rd2, _ := core.RunPair(d2, prof, cfg)
			if show {
				fmt.Printf("D2 + %-4s  fps loss %5.1f%%   L3 +%4.1fpt   GPU L2 +%4.1fpt\n",
					prof.Name,
					(solo.ServerFPS-rd2.ServerFPS)/solo.ServerFPS*100,
					(rd2.L3MissRate-solo.L3MissRate)*100,
					(rd2.GPUL2Miss-solo.GPUL2Miss)*100)
			}
		}
		if show {
			fmt.Println("paper: STK the most contentious co-runner, 0AD the least; CPU/GPU contentiousness correlate")
		}
	}
}

func BenchmarkFig20ContainerOverhead(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig20", "Container FPS/RTT overheads (negative = container faster)")
		var fpsAvg, rttAvg, rdAvg float64
		for _, prof := range app.PaperSuite() {
			r := core.RunContainerOverhead(prof, cfg)
			fpsAvg += r.FPSOverheadPct / float64(len(app.PaperSuite()))
			rttAvg += r.RTTOverheadPct / float64(len(app.PaperSuite()))
			rdAvg += r.RDOverheadPct / float64(len(app.PaperSuite()))
			if show {
				fmt.Printf("%-4s FPS %+5.1f%%   RTT %+5.1f%%   RD %+5.1f%%\n",
					r.Benchmark, r.FPSOverheadPct, r.RTTOverheadPct, r.RDOverheadPct)
			}
		}
		if show {
			fmt.Printf("avg: FPS %+.1f%% (paper 1.5%%), RTT %+.1f%% (paper 1.3%%), RD %+.1f%% (paper 2.9%%)\n",
				fpsAvg, rttAvg, rdAvg)
		}
	}
}

func BenchmarkFig21TwoStepCopyTimeline(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig21", "Two-step frame copy: FC stage time, baseline vs FCStart/FCEnd")
		for _, prof := range app.PaperSuite() {
			r := core.RunOptimization(prof, cfg)
			if show {
				fmt.Printf("%-4s FC %5.1f ms → %4.1f ms (halt removed: %4.1f ms)\n",
					r.Benchmark, r.BaseFCMs, r.OptFCMs, r.BaseFCMs-r.OptFCMs)
			}
		}
	}
}

func BenchmarkFig22Optimizations(b *testing.B) {
	cfg := benchCfg()
	cfg.Seconds = 20
	for i := 0; i < b.N; i++ {
		show := printHeader("Fig22", "Improved FPS/RTT from the two frame-copy optimizations")
		var sGain, cGain, rttRed float64
		for _, prof := range app.PaperSuite() {
			r := core.RunOptimization(prof, cfg)
			sGain += r.ServerFPSGain / float64(len(app.PaperSuite()))
			cGain += r.ClientFPSGain / float64(len(app.PaperSuite()))
			rttRed += r.RTTReduction / float64(len(app.PaperSuite()))
			if show {
				fmt.Printf("%-4s server %+6.1f%%   client %+6.1f%%   RTT %+6.1f%%\n",
					r.Benchmark, r.ServerFPSGain, r.ClientFPSGain, -r.RTTReduction)
			}
		}
		if show {
			fmt.Printf("avg: server %+.1f%% (paper +57.7%%), client %+.1f%% (paper +7.4%%), RTT %+.1f%% (paper −8.5%%)\n",
				sGain, cGain, -rttRed)
		}
	}
}

func BenchmarkTab04FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show := printHeader("Tab04", "Feature comparison vs prior work")
		table := core.FeatureMatrix()
		if show {
			fmt.Print(table)
		}
	}
}

// Ablations beyond the paper's figures: each §6 optimization alone, and
// the analysis framework's query-buffer choice.
func BenchmarkAblationMemoizeOnly(b *testing.B) {
	benchAblation(b, "Ablation-Memoize", func(o *vgl.Options) { o.MemoizeAttributes = true })
}

func BenchmarkAblationAsyncCopyOnly(b *testing.B) {
	benchAblation(b, "Ablation-Async", func(o *vgl.Options) { o.AsyncCopy = true })
}

func benchAblation(b *testing.B, id string, mod func(*vgl.Options)) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		show := printHeader(id, "server FPS gain from one optimization alone")
		for _, prof := range app.PaperSuite() {
			base := runWithInterposer(prof, vgl.DefaultOptions(), cfg)
			opts := vgl.DefaultOptions()
			mod(&opts)
			one := runWithInterposer(prof, opts, cfg)
			if show {
				fmt.Printf("%-4s %5.1f → %5.1f fps (%+.1f%%)\n", prof.Name, base, one, (one-base)/base*100)
			}
		}
	}
}

func runWithInterposer(prof app.Profile, opts vgl.Options, cfg core.ExperimentConfig) float64 {
	cl := core.NewCluster(core.Options{Seed: cfg.Seed})
	icfg := core.NewInstanceConfig(prof, core.HumanDriver())
	icfg.Interposer = opts
	cl.AddInstance(icfg)
	cl.Run(secs(cfg.WarmupSeconds), secs(cfg.Seconds))
	return cl.Instances[0].Tracer.ServerFPS()
}

func secs(s float64) sim.Duration { return sim.DurationOfSeconds(s) }

// BenchmarkSuiteGridParallel runs a reduced full-suite grid (shorter
// windows, human-driven families only are still included — the grid
// itself decides) on all cores: the experiment runner's headline path.
func BenchmarkSuiteGridParallel(b *testing.B) {
	cfg := benchCfg()
	cfg.Seconds = 8
	cfg.MaxInstances = 2
	cfg.Parallel = 0 // all cores
	for i := 0; i < b.N; i++ {
		g := core.RunSuiteGrid(cfg)
		if show := printHeader("Grid", "full-suite grid on the parallel runner"); show {
			fmt.Printf("grid: %d methodology sets, %d pair cells\n",
				len(g.Methodology), len(g.Pairs))
		}
	}
}

// BenchmarkSuiteGridSequential is the same grid pinned to one worker,
// for measuring the runner's parallel speedup (compare against
// BenchmarkSuiteGridParallel).
func BenchmarkSuiteGridSequential(b *testing.B) {
	cfg := benchCfg()
	cfg.Seconds = 8
	cfg.MaxInstances = 2
	cfg.Parallel = 1
	for i := 0; i < b.N; i++ {
		core.RunSuiteGrid(cfg)
	}
}

// BenchmarkScenarioProfiles runs one human-driven trial of every
// extended scenario family (CAD, VV, CZ) plus a nine-profile fleet
// consolidation — the registry path beyond the paper's six. It rides
// the CI bench smoke (-benchtime 1x), so a new family that panics,
// stalls or stops producing frames fails the build instead of rotting.
func BenchmarkScenarioProfiles(b *testing.B) {
	cfg := benchCfg()
	cfg.Seconds = 8
	for i := 0; i < b.N; i++ {
		show := printHeader("Scenarios", "extended families: CloudCAD / VoluPlay / CasualZen")
		trials := []exp.Trial{
			exp.Single(mustProfile(b, "CAD"), exp.DriverHuman),
			exp.Single(mustProfile(b, "VV"), exp.DriverHuman),
			exp.Single(mustProfile(b, "CZ"), exp.DriverHuman),
		}
		for ti, reps := range core.RunTrials(trials, cfg) {
			r := reps[0].Results[0]
			if r.ServerFPS <= 0 {
				b.Fatalf("trial %d produced no frames", ti)
			}
			if show {
				fmt.Printf("%-4s srv %5.1f fps  cli %5.1f fps  RTT %6.1f ms  mem %4.0f MB\n",
					r.Benchmark, r.ServerFPS, r.ClientFPS, r.RTT.Mean, r.FootprintMB)
			}
		}
		shape := exp.FleetShape{Machines: 3, Mix: "suite", Requests: 9, Profiles: "all"}
		fr := core.RunFleetConsolidation(shape, cfg)
		if fr.Placed == 0 {
			b.Fatal("nine-profile fleet placed nothing")
		}
		if show {
			fmt.Printf("fleet over all profiles: placed %d, rejected %d, QoS violations %d\n",
				fr.Placed, fr.Rejected, fr.QoSViolations)
		}
	}
}

// BenchmarkFaultChurn runs the full fault-injection churn path —
// crashes on a deterministic MTBF/MTTR schedule, evictions, retry
// failover and brown-out degradation, with every epoch executed on
// simulated machines. It rides the CI bench smoke (-benchtime 1x), so a
// fault path that panics, stalls or stops recovering sessions fails the
// build instead of rotting.
func BenchmarkFaultChurn(b *testing.B) {
	cfg := benchCfg()
	static := false // no migration controller: isolate the recovery mechanisms
	spec := core.ExperimentSpec{
		Kind: core.SpecFaults, Warmup: 1, Seconds: 5, Seed: &cfg.Seed, Reps: cfg.Reps,
		Machines: 5, Policy: "leastdemand", Mix: "heavy", CoreClasses: "8,8,4",
		Epochs: 8, Rate: 3, Duration: 4, Migrate: &static,
		MTBF: 5, MTTR: 1, Retries: 3, Backoff: 1, Degrade: true,
	}
	for i := 0; i < b.N; i++ {
		out, err := core.RunSpec(spec, cfg.Parallel)
		if err != nil {
			b.Fatal(err)
		}
		drop, resilient := out.Churn[1], out.Churn[2]
		if drop.Crashes == 0 {
			b.Fatal("fault schedule injected no crashes")
		}
		if resilient.Recovered == 0 {
			b.Fatal("retry failover recovered no sessions")
		}
		if show := printHeader("Faults", "fault injection: drop vs retry+degrade"); show {
			fmt.Printf("crashes %d: availability %.1f%% (drop) vs %.1f%% (retry+degrade), %d recovered, %d degraded session-epochs\n",
				drop.Crashes, 100*drop.Availability, 100*resilient.Availability,
				resilient.Recovered, resilient.DegradedSessionEpochs)
		}
	}
}

// BenchmarkSurrogateSweep is the scale headline of the fidelity
// tiers: a 1000-machine heterogeneous fleet offered ~100k sessions
// over 20 epochs, every machine on the calibrated surrogate tier
// (SurrogateTail with a zero sampled cohort), driven through the churn
// epoch loop with the migration controller on. What took the
// full per-frame simulator hours runs in seconds here — the pinned
// guard keeps it that way — while the fidelity fixture in
// internal/core bounds how far the cheap tier may drift. Calibration
// is warmed outside the timed region: it is a once-per-process cost
// shared by fingerprint, not part of the sweep.
func BenchmarkSurrogateSweep(b *testing.B) {
	cfg := benchCfg()
	cfg.WarmupSeconds, cfg.Seconds = 1, 5
	shape := exp.FleetShape{
		Machines: 1000, Policy: "roundrobin", Mix: "heavy", CoreClasses: "8,4",
		Epochs: 20, ArrivalRate: 5000, MeanSessionEpochs: 2,
		Migrate: true, SurrogateTail: true,
	}
	warm := shape
	warm.Machines, warm.Epochs, warm.ArrivalRate, warm.MeanSessionEpochs = 2, 1, 1, 1
	warm.Migrate = false
	core.RunFleetChurn(warm, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.RunFleetChurn(shape, cfg)
		if r.Arrivals < 90000 {
			b.Fatalf("sweep offered only %d sessions, want ~100k", r.Arrivals)
		}
		if r.MeanActive <= 0 || r.MeanPowerWatts <= 0 {
			b.Fatalf("sweep produced no execution: active %.1f, %.1f W", r.MeanActive, r.MeanPowerWatts)
		}
		b.ReportMetric(float64(r.Arrivals), "sessions/op")
		if show := printHeader("Surrogate", "churn epoch loop: 100k-session surrogate-tier sweep"); show {
			fmt.Printf("1000 machines × 20 epochs: %d sessions offered, %d rejected, mean active %.0f, %.1f%% available, %.0f kW mean\n",
				r.Arrivals, r.Rejected, r.MeanActive, 100*r.Availability, r.MeanPowerWatts/1000)
		}
	}
}

// BenchmarkDiurnalMillionSweep is the streaming arrival/result API's
// scale headline: a 10,000-machine surrogate fleet offered over a
// million sessions across a 70-epoch diurnal day (10k/epoch trough,
// 20k/epoch peak), streamed through the rollup-only sink so the run
// holds per-epoch aggregates transiently and retains none — memory is
// O(machines + peak concurrent sessions), not O(machines × epochs) or
// O(total arrivals). The in-loop assertions are the sweep's acceptance
// floor: at least a million offered sessions, a non-empty execution,
// and zero retained epoch rows.
func BenchmarkDiurnalMillionSweep(b *testing.B) {
	cfg := benchCfg()
	cfg.WarmupSeconds, cfg.Seconds = 1, 5
	shape := exp.FleetShape{
		Machines: 10000, Policy: "roundrobin", Mix: "heavy", CoreClasses: "8,4",
		Epochs: 70, ArrivalRate: 10000, MeanSessionEpochs: 1,
		RateSchedule: "diurnal", PeakRate: 20000, PeriodEpochs: 70,
		SurrogateTail: true, RollupOnly: true,
	}
	warm := shape
	warm.Machines, warm.Epochs, warm.ArrivalRate, warm.PeakRate, warm.PeriodEpochs = 2, 1, 1, 2, 1
	warm.MeanSessionEpochs = 1
	core.RunFleetChurn(warm, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.RunFleetChurn(shape, cfg)
		if r.Arrivals < 1_000_000 || r.OfferedSessionEpochs < 1_000_000 {
			b.Fatalf("sweep offered only %d sessions (%d session-epochs), want >= 1M", r.Arrivals, r.OfferedSessionEpochs)
		}
		if len(r.Epochs) != 0 {
			b.Fatalf("streaming sweep retained %d epoch rows, want 0", len(r.Epochs))
		}
		if r.MeanActive <= 0 || r.MeanPowerWatts <= 0 {
			b.Fatalf("sweep produced no execution: active %.1f, %.1f W", r.MeanActive, r.MeanPowerWatts)
		}
		b.ReportMetric(float64(r.Arrivals), "sessions/op")
		if show := printHeader("Diurnal", "streaming arrival API: 1M-session diurnal day on 10k machines"); show {
			fmt.Printf("10000 machines × 70 epochs (diurnal 10k→20k/epoch): %d sessions offered, %d rejected, mean active %.0f, %.1f%% available, %.0f kW mean\n",
				r.Arrivals, r.Rejected, r.MeanActive, 100*r.Availability, r.MeanPowerWatts/1000)
		}
	}
}

// mustProfile resolves a registered profile for the scenario bench.
func mustProfile(b *testing.B, name string) app.Profile {
	p, ok := app.ByName(name)
	if !ok {
		b.Fatalf("profile %s not registered", name)
	}
	return p
}
