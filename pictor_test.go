package pictor_test

import (
	"testing"

	"pictor"
)

func TestSuiteComposition(t *testing.T) {
	paper := pictor.PaperSuite()
	if len(paper) != 6 {
		t.Fatalf("paper suite has %d benchmarks, want 6 (Table 2)", len(paper))
	}
	vr, closed := 0, 0
	for _, p := range paper {
		if p.IsVR {
			vr++
		}
		if p.ClosedSource {
			closed++
		}
	}
	if vr != 2 {
		t.Fatalf("paper suite has %d VR titles, want 2", vr)
	}
	if closed != 2 {
		t.Fatalf("paper suite has %d closed-source titles, want 2 (Dota2, InMind)", closed)
	}
	if got := len(pictor.Suite()); got < 9 {
		t.Fatalf("registry has %d profiles, want >= 9 (paper six + CAD, VV, CZ)", got)
	}
	if got := len(pictor.ProfileNames()); got != len(pictor.Suite()) {
		t.Fatalf("ProfileNames (%d) and Suite (%d) disagree", got, len(pictor.Suite()))
	}
	if _, err := pictor.ResolveProfiles("STK,CAD,VV"); err != nil {
		t.Fatalf("ResolveProfiles rejected a valid subset: %v", err)
	}
	if _, err := pictor.ResolveProfiles("NOPE"); err == nil {
		t.Fatal("ResolveProfiles accepted an unknown name")
	}
}

func TestSuiteByName(t *testing.T) {
	if got := pictor.SuiteByName("D2").FullName; got != "Dota2" {
		t.Fatalf("SuiteByName(D2) = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown benchmark should panic")
		}
	}()
	pictor.SuiteByName("NOPE")
}

func TestPublicQuickstartFlow(t *testing.T) {
	cluster := pictor.NewCluster(pictor.Options{Seed: 3})
	cluster.AddInstance(pictor.NewInstanceConfig(pictor.SuiteByName("RE"), pictor.HumanDriver()))
	cluster.RunSeconds(2, 8)
	rs := cluster.Results()
	if len(rs) != 1 {
		t.Fatalf("got %d results, want 1", len(rs))
	}
	r := rs[0]
	if r.ServerFPS <= 0 || r.ClientFPS <= 0 {
		t.Fatalf("no frames flowed: server %v, client %v", r.ServerFPS, r.ClientFPS)
	}
	if r.RTT.N == 0 || r.RTT.Mean <= 0 {
		t.Fatal("no round trips measured")
	}
	if cluster.TotalPowerWatts() <= 0 {
		t.Fatal("no power modelled")
	}
}

func TestPublicOptimizationExperiment(t *testing.T) {
	cfg := pictor.DefaultExperimentConfig()
	cfg.Seconds = 10
	r := pictor.RunOptimization(pictor.SuiteByName("STK"), cfg)
	if r.OptServerFPS <= r.BaseServerFPS {
		t.Fatalf("optimizations did not help: %.1f → %.1f fps", r.BaseServerFPS, r.OptServerFPS)
	}
}

func TestPublicContainerExperiment(t *testing.T) {
	cfg := pictor.DefaultExperimentConfig()
	cfg.Seconds = 10
	r := pictor.RunContainerOverhead(pictor.SuiteByName("IM"), cfg)
	if r.BareServerFPS <= 0 || r.ContServerFPS <= 0 {
		t.Fatal("container experiment produced no frames")
	}
	// Container overhead is small either way (paper: ~1.5% average,
	// occasionally negative).
	if r.FPSOverheadPct > 25 || r.FPSOverheadPct < -25 {
		t.Fatalf("container FPS overhead implausible: %.1f%%", r.FPSOverheadPct)
	}
}

func TestInterposerPresets(t *testing.T) {
	base := pictor.BaselineInterposer()
	opt := pictor.OptimizedInterposer()
	if base.MemoizeAttributes || base.AsyncCopy {
		t.Fatal("baseline interposer should have optimizations off")
	}
	if !opt.MemoizeAttributes || !opt.AsyncCopy {
		t.Fatal("optimized interposer should have both optimizations on")
	}
}

func TestPublicTrialRunner(t *testing.T) {
	trials := []pictor.Trial{
		pictor.SingleTrial(pictor.SuiteByName("STK"), pictor.Human),
		pictor.HomogeneousTrial(pictor.SuiteByName("RE"), pictor.Human, 2),
		pictor.PairTrial(pictor.SuiteByName("STK"), pictor.SuiteByName("RE")),
	}
	// Set windows on all but the first: a trial left at zero Measure
	// must inherit the config's windows instead of silently measuring
	// nothing.
	for i := 1; i < len(trials); i++ {
		trials[i].Warmup, trials[i].Measure = 1, 5
	}
	cfg := pictor.DefaultExperimentConfig()
	cfg.WarmupSeconds, cfg.Seconds = 1, 5
	cfg.Parallel = 4
	cfg.Reps = 2
	out := pictor.RunTrials(trials, cfg)
	if len(out) != 3 {
		t.Fatalf("got %d trial results, want 3", len(out))
	}
	if trials[0].Measure != 0 {
		t.Fatal("RunTrials mutated the caller's trial slice")
	}
	for ti, reps := range out {
		if len(reps) != 2 {
			t.Fatalf("trial %d: got %d reps, want 2", ti, len(reps))
		}
		for _, r := range reps {
			if len(r.Results) != len(trials[ti].Instances) {
				t.Fatalf("trial %d: %d instance results for %d instances",
					ti, len(r.Results), len(trials[ti].Instances))
			}
			for _, ir := range r.Results {
				if ir.ServerFPS <= 0 {
					t.Fatalf("trial %d produced no frames", ti)
				}
			}
		}
		if reps[0].Seed == reps[1].Seed {
			t.Fatalf("trial %d: repetitions share a seed", ti)
		}
	}
}

func TestPublicCharacterizationDriverKinds(t *testing.T) {
	cfg := pictor.DefaultExperimentConfig()
	cfg.Seconds = 6
	rs := pictor.RunCharacterization(pictor.SuiteByName("0AD"), 2, pictor.Human, cfg)
	if len(rs) != 2 {
		t.Fatalf("got %d results, want 2", len(rs))
	}
	if rs[0].ClientFPS <= 0 || rs[1].ClientFPS <= 0 {
		t.Fatal("characterization produced no client frames")
	}
}

func TestPublicFleetExperiment(t *testing.T) {
	cfg := pictor.DefaultExperimentConfig()
	cfg.WarmupSeconds, cfg.Seconds = 1, 5
	shape := pictor.FleetShape{
		Machines: 2,
		Policy:   pictor.PolicyLeastDemand,
		Mix:      pictor.MixSuite,
		Requests: 4,
	}
	r := pictor.RunFleetConsolidation(shape, cfg)
	if len(r.Machines) != 2 {
		t.Fatalf("got %d machines, want 2", len(r.Machines))
	}
	if r.Placed+r.Rejected != 4 {
		t.Fatalf("placed %d + rejected %d must account for 4 requests", r.Placed, r.Rejected)
	}
	if r.TotalPowerWatts <= 0 || r.RTT.N == 0 {
		t.Fatalf("fleet rollups missing: watts=%v rtt=%+v", r.TotalPowerWatts, r.RTT)
	}
	// A fleet-shaped trial runs through the generic trial runner too.
	out := pictor.RunTrials([]pictor.Trial{pictor.FleetTrialOf(shape)}, cfg)
	if out[0][0].Fleet == nil {
		t.Fatal("fleet trial result missing Fleet payload")
	}
	if len(pictor.FleetPolicyNames()) != 4 {
		t.Fatalf("want 4 policies, got %v", pictor.FleetPolicyNames())
	}
}

func TestPublicChurnExperiment(t *testing.T) {
	cfg := pictor.DefaultExperimentConfig()
	cfg.WarmupSeconds, cfg.Seconds = 1, 5
	shape := pictor.FleetShape{
		Machines:          2,
		Policy:            pictor.PolicyLeastCount,
		Mix:               pictor.MixHeavy,
		CoreClasses:       "8,4",
		Epochs:            3,
		ArrivalRate:       2,
		MeanSessionEpochs: 2,
		Migrate:           true,
	}
	r := pictor.RunFleetChurn(shape, cfg)
	if len(r.Epochs) != 3 {
		t.Fatalf("got %d epoch rows, want 3", len(r.Epochs))
	}
	if r.MeanPowerWatts <= 0 {
		t.Fatalf("churn rollups missing: %+v", r)
	}
	cmp, err := pictor.RunSpec(pictor.ExperimentSpec{
		Kind: "churn", Warmup: 1, Seconds: 5,
		Machines: shape.Machines, Policy: shape.Policy, Mix: shape.Mix, CoreClasses: shape.CoreClasses,
		Epochs: shape.Epochs, Rate: shape.ArrivalRate, Duration: shape.MeanSessionEpochs,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs := cmp.Churn
	if len(rs) != 2 || rs[0].Migrate || !rs[1].Migrate {
		t.Fatalf("comparison must return {static, migrated}, got %+v", rs)
	}
	if rs[0].Arrivals != rs[1].Arrivals {
		t.Fatal("static and migrated runs must churn the identical tenant population")
	}
	for _, table := range []string{pictor.ChurnTable(r), pictor.ChurnComparisonTable(rs)} {
		if len(table) == 0 {
			t.Fatal("churn tables must render")
		}
	}
	// A churn-shaped trial runs through the generic trial runner too.
	out := pictor.RunTrials([]pictor.Trial{pictor.FleetTrialOf(shape)}, cfg)
	if out[0][0].Churn == nil {
		t.Fatal("churn trial result missing Churn payload")
	}
}

func TestPublicFaultExperiment(t *testing.T) {
	static := false // no migration controller: isolate the recovery mechanisms
	out, err := pictor.RunSpec(pictor.ExperimentSpec{
		Kind: "faults", Warmup: 1, Seconds: 5,
		Machines:    3,
		Policy:      pictor.PolicyLeastDemand,
		Mix:         pictor.MixHeavy,
		CoreClasses: "8,8,4",
		Epochs:      4,
		Rate:        2,
		Duration:    3,
		Migrate:     &static,
		MTBF:        3,
		MTTR:        1,
		Retries:     3,
		Backoff:     1,
		Degrade:     true,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs := out.Churn
	if len(rs) != 3 {
		t.Fatalf("fault comparison must return {healthy, drop, resilient}, got %d rows", len(rs))
	}
	healthy, drop, resilient := rs[0], rs[1], rs[2]
	if healthy.Faulty || !drop.Faulty || !resilient.Faulty {
		t.Fatalf("fault echoes wrong: %t %t %t", healthy.Faulty, drop.Faulty, resilient.Faulty)
	}
	if healthy.Arrivals != drop.Arrivals || drop.Arrivals != resilient.Arrivals {
		t.Fatal("all three runs must churn the identical tenant population")
	}
	if healthy.Crashes != 0 || drop.Crashes == 0 || drop.Crashes != resilient.Crashes {
		t.Fatalf("drop and resilient must see the identical failure schedule: %d vs %d (healthy %d)",
			drop.Crashes, resilient.Crashes, healthy.Crashes)
	}
	if healthy.Availability <= 0 || drop.Availability <= 0 || resilient.Availability <= 0 {
		t.Fatalf("availability must be reported: %+v", []float64{healthy.Availability, drop.Availability, resilient.Availability})
	}
	if s := pictor.ChurnComparisonTable(rs); len(s) == 0 {
		t.Fatal("fault comparison table must render")
	}
}

// TestPublicCheckedTrialIsolation: a deliberately poisoned trial (fault
// parameters on a non-churn shape panic during execution) fails only
// its own repetitions, names itself by Key() in the error, and leaves
// every healthy trial's results intact.
func TestPublicCheckedTrialIsolation(t *testing.T) {
	cfg := pictor.DefaultExperimentConfig()
	cfg.WarmupSeconds, cfg.Seconds = 1, 5
	cfg.Reps = 2
	healthy := pictor.SingleTrial(pictor.SuiteByName("RE"), pictor.Human)
	poisoned := pictor.FleetTrialOf(pictor.FleetShape{
		Machines: 2, Policy: pictor.PolicyLeastCount, Mix: pictor.MixHeavy,
		MTBFEpochs: 5, MTTREpochs: 1, // faults without churn: invalid by construction
	})
	poisoned.ID = "poisoned"
	// Pin the windows so the reported Key() matches this handle's
	// (unset windows inherit the config's at run time).
	poisoned.Warmup, poisoned.Measure = cfg.WarmupSeconds, cfg.Seconds
	out, errs := pictor.RunTrialsChecked([]pictor.Trial{healthy, poisoned}, cfg)
	if len(errs) != cfg.Reps {
		t.Fatalf("got %d failures, want one per poisoned rep (%d)", len(errs), cfg.Reps)
	}
	for i, pe := range errs {
		if pe.TrialIndex != 1 || pe.Rep != i {
			t.Fatalf("failure %d misattributed: trial %d rep %d", i, pe.TrialIndex, pe.Rep)
		}
		if pe.TrialKey != poisoned.Key() {
			t.Fatalf("failure key %q must be the poisoned trial's Key() %q", pe.TrialKey, poisoned.Key())
		}
	}
	for rep := 0; rep < cfg.Reps; rep++ {
		if len(out[0][rep].Results) == 0 || out[0][rep].PowerWatts <= 0 {
			t.Fatalf("healthy trial rep %d lost its results to the poisoned trial", rep)
		}
	}
}
