package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"pictor/internal/app"
	"pictor/internal/core"
	"pictor/internal/exp"
	"pictor/internal/fleet"
)

// workload is one input set of the benchmark: either the paper path
// (the suite grid, per-frame simulation) or the fleet path (one churn
// shape), chosen by grid. Every run is a closed loop of one client: the
// next run starts when the previous returns, and the runner uses one
// worker. Fleet arrivals are an open-loop Poisson schedule in simulated
// time, so a slow layer cannot lower the offered load.
type workload struct {
	name string
	why  string
	cfg  core.ExperimentConfig // windows; the seed is set per invocation
	// grid marks the paper path: core.SuiteGridTrials(cfg), one
	// core.RunTrialsChecked call per trial unit.
	grid bool
	// shape is the fleet path's churn shape.
	shape exp.FleetShape
	// minArrivals is a correctness floor on the sessions one run offers.
	minArrivals int
	// accuracy reruns the shape on the surrogate tier after the timed
	// runs and reports how far it lands from full fidelity.
	accuracy bool
}

// workloads is the benchmark's registry, in run order.
func workloads() []*workload {
	return []*workload{
		paperGrid(core.ExperimentConfig{WarmupSeconds: 2, Seconds: 60, MaxInstances: 4}),
		churnFull(40, 40, 10),
		diurnal(10000, 70, 10000, 1_000_000),
		flashBinpack(3000, 48, 750, 9000, 12),
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (workloads: %s)", name, strings.Join(names, ", "))
}

// paperGrid is the paper's whole evaluation for the Table-2 six: every
// per-frame layer is busy (scene, CNN/LSTM inference, codec, VNC, X11,
// VirtualGL, tracing, the simulation kernel) and no fleet layer runs.
func paperGrid(cfg core.ExperimentConfig) *workload {
	cfg.Parallel = 1
	return &workload{
		name: "paper-grid",
		why:  "the paper's whole evaluation: every per-frame layer busy, no fleet layer",
		cfg:  cfg,
		grid: true,
	}
}

// churnFull runs every machine-epoch at full fidelity: about 1500 short
// heterogeneous clusters instead of the grid's 81 long ones, so cluster
// construction counts, with the fault, retry, degrade and migrate
// controllers on. Placement is trivial at this size.
func churnFull(machines, epochs int, rate float64) *workload {
	return &workload{
		name: "churn-full",
		why:  "full-fidelity churn: many short clusters, faults, retry, degrade and migrate; placement trivial",
		cfg:  core.ExperimentConfig{WarmupSeconds: 1, Seconds: 5, Parallel: 1},
		shape: exp.FleetShape{
			Machines: machines, Policy: fleet.PolicyLeastDemand, Mix: string(fleet.MixHeavy),
			CoreClasses: "8,8,4", Epochs: epochs, ArrivalRate: rate, MeanSessionEpochs: 4,
			MTBFEpochs: 10, MTTREpochs: 1, RetryAttempts: 3, RetryBackoffEpochs: 1,
			Degrade: true, Migrate: true,
		},
		accuracy: true,
	}
}

// diurnal is the fleet headline (BenchmarkDiurnalMillionSweep's shape):
// round-robin cursor placement, the surrogate tier and the rollup sink,
// no per-frame simulation.
func diurnal(machines, epochs int, trough float64, minArrivals int) *workload {
	return &workload{
		name: "diurnal-1m",
		why:  "the 1M-session fleet headline: round-robin placement, surrogate tier, rollup sink",
		cfg:  core.ExperimentConfig{WarmupSeconds: 1, Seconds: 5, Parallel: 1},
		shape: exp.FleetShape{
			Machines: machines, Policy: fleet.PolicyRoundRobin, Mix: string(fleet.MixHeavy),
			CoreClasses: "8,4", Epochs: epochs, ArrivalRate: trough, MeanSessionEpochs: 1,
			RateSchedule: fleet.ScheduleDiurnal, PeakRate: 2 * trough, PeriodEpochs: epochs,
			SurrogateTail: true, RollupOnly: true,
		},
		minArrivals: minArrivals,
	}
}

// flashBinpack drives the same placement layer down its other path:
// the full-scan Pick with interference scoring, and a flash crowd that
// leaves about half the arrivals with nowhere to fit.
func flashBinpack(machines, epochs int, rate, peak float64, period int) *workload {
	return &workload{
		name: "flash-binpack",
		why:  "full-scan bin-packing with interference scoring under a flash crowd; half the arrivals find no fit",
		cfg:  core.ExperimentConfig{WarmupSeconds: 1, Seconds: 5, Parallel: 1},
		shape: exp.FleetShape{
			Machines: machines, Policy: fleet.PolicyBinPack, Mix: string(fleet.MixSuite),
			CoreClasses: "8,4", Epochs: epochs, ArrivalRate: rate, MeanSessionEpochs: 2,
			RateSchedule: fleet.ScheduleFlash, PeakRate: peak, PeriodEpochs: period,
			SurrogateTail: true, RollupOnly: true,
		},
	}
}

func (w *workload) config(seed int64) core.ExperimentConfig {
	cfg := w.cfg
	cfg.Seed = seed
	return cfg
}

// setup fills the process-global caches the workload's runs read —
// the intelligent clients' trained models, the pair-interference table,
// the surrogate calibration — and returns one span per cache, in
// seconds. Each cache fills once per process, so set-up is timed in a
// fresh process.
func (w *workload) setup(seed int64) (map[string]float64, error) {
	spans := map[string]float64{}
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		spans[name] = time.Since(t0).Seconds()
	}
	if w.grid {
		timed("agent.train_s", func() {
			for _, p := range app.PaperSuite() {
				core.TrainedModels(p)
			}
		})
		return spans, nil
	}
	suite, err := app.Resolve(w.shape.Profiles)
	if err != nil {
		return nil, err
	}
	if w.shape.Policy == fleet.PolicyBinPack {
		timed("core.interference_s", func() { core.PairInterferenceAmong(suite) })
	}
	if w.shape.SurrogateTail || w.accuracy {
		// A one-machine surrogate run calibrates the response curves.
		calib := exp.FleetShape{
			Machines: 1, Epochs: 1, ArrivalRate: 1, MeanSessionEpochs: 1,
			Profiles: w.shape.Profiles, SurrogateTail: true, RollupOnly: true,
		}
		var cerr error
		timed("core.surrogate_calib_s", func() { _, cerr = runChurn(calib, w.config(seed), nil) })
		if cerr != nil {
			return nil, cerr
		}
	}
	return spans, nil
}

// runResult is what one run of a workload produced.
type runResult struct {
	// units holds the wall seconds of each unit of work: a grid trial,
	// or a churn epoch.
	units []float64
	// family sums grid unit wall seconds per trial family (the trial ID
	// prefix); familyN counts the family's units.
	family  map[string]float64
	familyN map[string]int
	// work counts simulated frames (grid) or executed session-epochs
	// (fleet).
	work float64
	// digest fingerprints every simulated statistic the run returned.
	digest            string
	attempted, failed int
	churn             *core.ChurnResult
}

func (w *workload) run(seed int64) runResult {
	if w.grid {
		return w.runGrid(seed)
	}
	return w.runFleet(seed)
}

func (w *workload) runGrid(seed int64) runResult {
	cfg := w.config(seed)
	r := runResult{family: map[string]float64{}, familyN: map[string]int{}}
	h := sha256.New()
	for _, t := range core.SuiteGridTrials(cfg) {
		t0 := time.Now()
		res, errs := core.RunTrialsChecked([]exp.Trial{t}, cfg)
		d := time.Since(t0).Seconds()
		r.units = append(r.units, d)
		fam, _, _ := strings.Cut(t.ID, "/")
		r.family[fam] += d
		r.familyN[fam]++
		r.attempted++
		var err error
		if len(errs) > 0 {
			err = errs[0]
		} else {
			err = checkGrid(res[0][0])
		}
		var b []byte
		if err == nil {
			b, err = json.Marshal(res[0][0].Results)
		}
		if err != nil {
			r.failed++
			logf("%s: unit %s failed: %v", w.name, t.ID, err)
			continue
		}
		fmt.Fprintf(h, "%s %g %s\n", t.ID, res[0][0].PowerWatts, b)
		measure := t.Measure
		if measure <= 0 {
			measure = cfg.Seconds
		}
		for _, ir := range res[0][0].Results {
			r.work += ir.ServerFPS * measure
		}
	}
	r.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return r
}

func checkGrid(tr core.TrialResult) error {
	if len(tr.Results) == 0 {
		return fmt.Errorf("no instances")
	}
	for _, ir := range tr.Results {
		if !(ir.ServerFPS > 0) {
			return fmt.Errorf("instance %s rendered no frames", ir.Name)
		}
	}
	return nil
}

func (w *workload) runFleet(seed int64) runResult {
	clock := &epochClock{}
	cr, err := runChurn(w.shape, w.config(seed), clock)
	r := runResult{attempted: 1, units: clock.lat}
	if err == nil {
		err = w.checkFleet(cr)
	}
	var b []byte
	if err == nil {
		b, err = json.Marshal(cr)
	}
	if err != nil {
		r.failed = 1
		logf("%s: run failed: %v", w.name, err)
		return r
	}
	sum := sha256.Sum256(b)
	r.digest = hex.EncodeToString(sum[:])[:16]
	r.churn = cr
	r.work = math.Round(cr.MeanActive * float64(w.shape.Epochs))
	return r
}

func (w *workload) checkFleet(cr *core.ChurnResult) error {
	if cr.Arrivals < w.minArrivals {
		return fmt.Errorf("offered %d sessions, want at least %d", cr.Arrivals, w.minArrivals)
	}
	if !(cr.MeanActive > 0) {
		return fmt.Errorf("no session ever executed")
	}
	return nil
}

// runChurn executes one churn shape through the checked runner, so a
// panic comes back as an error naming the trial. A non-nil clock
// observes every epoch as it closes.
func runChurn(shape exp.FleetShape, cfg core.ExperimentConfig, clock *epochClock) (*core.ChurnResult, error) {
	t := exp.FleetTrial(shape)
	t.ID = "bench/churn"
	t.Warmup, t.Measure, t.Seed = cfg.WarmupSeconds, cfg.Seconds, cfg.Seed
	if clock != nil {
		t.Sink = clock
		clock.last = time.Now()
	}
	res, errs := core.RunTrialsChecked([]exp.Trial{t}, cfg)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return res[0][0].Churn, nil
}

// epochClock is a churn result sink that keeps nothing but the wall
// time each epoch took to close. Handing a sink to a churn trial
// streams its rows instead of retaining them; every benchmarked fleet
// shape is measured that way.
type epochClock struct {
	last time.Time
	lat  []float64
}

func (c *epochClock) ObserveEpoch(core.EpochResult) {
	now := time.Now()
	c.lat = append(c.lat, now.Sub(c.last).Seconds())
	c.last = now
}

func (c *epochClock) ObserveOccupancy(int, []core.MachineOccupancy) {}

// replayResult times arrival generation, departures and placement in
// isolation.
type replayResult struct {
	arrival, depart, place float64 // seconds
	offers, rejects        int
}

// replay re-executes the shape's arrival stream and placement outside
// the churn kernel: the same source, seeded exactly as the churn
// executor seeds it, and the same Churn calls, but no execution, no
// faults and no controllers. Its counts equal the real run's only for
// shapes without faults, retry, degrade or migration.
func (w *workload) replay(seed int64) (replayResult, error) {
	var r replayResult
	sh := w.shape
	suite, err := app.Resolve(sh.Profiles)
	if err != nil {
		return r, err
	}
	var it *fleet.Interference
	if sh.Policy == fleet.PolicyBinPack {
		it = core.PairInterferenceAmong(suite)
	}
	pol, err := fleet.NewPolicy(sh.Policy, it)
	if err != nil {
		return r, err
	}
	classes, err := fleet.ParseCoreClasses(sh.CoreClasses)
	if err != nil {
		return r, err
	}
	src, err := fleet.NewChurnSource(fleet.ArrivalConfig{
		Suite: suite, Mix: fleet.Mix(sh.Mix),
		Schedule: sh.RateSchedule, Rate: sh.ArrivalRate,
		PeakRate: sh.PeakRate, PeriodEpochs: sh.PeriodEpochs,
		MeanSessionEpochs: sh.MeanSessionEpochs, Epochs: sh.Epochs,
		Seed: exp.DeriveSeed(seed, streamKey(sh), 0),
	})
	if err != nil {
		return r, err
	}
	c := fleet.NewChurn(fleet.NewHetero(sh.Machines, classes), pol)
	c.Retry = fleet.RetryPolicy{MaxAttempts: sh.RetryAttempts, BackoffEpochs: sh.RetryBackoffEpochs}
	c.Pool = src
	for e := 0; e < sh.Epochs; e++ {
		t0 := time.Now()
		c.DepartDue(e)
		t1 := time.Now()
		batch := src.Next(e)
		t2 := time.Now()
		for _, s := range batch {
			r.offers++
			if !c.Offer(s, e) {
				r.rejects++
			}
		}
		t3 := time.Now()
		r.depart += t1.Sub(t0).Seconds()
		r.arrival += t2.Sub(t1).Seconds()
		r.place += t3.Sub(t2).Seconds()
	}
	return r, nil
}

// streamKey is the arrival-stream key the churn executor derives its
// stream seed from (internal/core executeFleetChurn); the replay must
// match it exactly to offer the same sessions.
func streamKey(sh exp.FleetShape) string {
	key := fmt.Sprintf("fleet/churn|%s|rate=%g|dur=%g|epochs=%d",
		sh.Mix, sh.ArrivalRate, sh.MeanSessionEpochs, sh.Epochs)
	if sh.Profiles != "" {
		key += "|profiles=" + sh.Profiles
	}
	if sh.Scheduled() {
		key += fmt.Sprintf("|sched=%s|peak=%g|period=%d", sh.RateSchedule, sh.PeakRate, sh.PeriodEpochs)
	}
	return key
}

// checkReplay compares the replay's counts with a real run's.
func (w *workload) checkReplay(r replayResult, cr *core.ChurnResult) error {
	if r.offers != cr.Arrivals {
		return fmt.Errorf("replay offered %d sessions, the run %d", r.offers, cr.Arrivals)
	}
	sh := w.shape
	exact := !sh.Faulty() && sh.RetryAttempts == 0 && !sh.Degrade && !sh.Migrate
	if exact && r.rejects != cr.Rejected {
		return fmt.Errorf("replay rejected %d sessions, the run %d", r.rejects, cr.Rejected)
	}
	return nil
}
