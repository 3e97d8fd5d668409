package core

import (
	"testing"

	"pictor/internal/app"
	"pictor/internal/exp"
	"pictor/internal/fleet"
	"pictor/internal/stats"
)

func quickFleetConfig() ExperimentConfig {
	return ExperimentConfig{WarmupSeconds: 1, Seconds: 5, Seed: 1}
}

func TestRunFleetConsolidationShape(t *testing.T) {
	shape := exp.FleetShape{Machines: 2, Policy: fleet.PolicyRoundRobin, Mix: string(fleet.MixSuite), Requests: 4}
	r := RunFleetConsolidation(shape, quickFleetConfig())
	if len(r.Machines) != 2 {
		t.Fatalf("got %d machines, want 2", len(r.Machines))
	}
	if r.Placed+r.Rejected != 4 {
		t.Fatalf("placed %d + rejected %d must account for 4 requests", r.Placed, r.Rejected)
	}
	if r.Placed == 0 {
		t.Fatal("two 8-core machines must admit something from a 4-request stream")
	}
	if r.TotalPowerWatts <= 0 {
		t.Fatal("fleet power must include at least idle watts")
	}
	total := 0
	for _, m := range r.Machines {
		total += len(m.Results)
		for _, ir := range m.Results {
			if ir.ServerFPS <= 0 {
				t.Fatalf("machine %d instance %s produced no frames", m.Machine, ir.Name)
			}
		}
		if len(m.Results) > 0 && m.RTT.N == 0 {
			t.Fatalf("machine %d has instances but no pooled RTT", m.Machine)
		}
	}
	if total != r.Placed {
		t.Fatalf("machine results (%d) disagree with Placed (%d)", total, r.Placed)
	}
	if r.RTT.N == 0 || r.RTT.Mean <= 0 {
		t.Fatalf("fleet-wide RTT missing: %+v", r.RTT)
	}
}

func TestRunSpecFleetCoversAllPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("binpack measures pair interference")
	}
	out := runSpecAt(t, ExperimentSpec{
		Kind: SpecFleet, Warmup: 1, Seconds: 5,
		Machines: 2, Mix: string(fleet.MixShuffled), Requests: 5,
	}, 0)
	if out.Spec.Reps != 1 || out.Spec.Seed == nil || *out.Spec.Seed != 1 || out.Grid != nil || out.Churn != nil {
		t.Fatalf("outcome must carry the normalized spec and only the fleet payload: %+v", out)
	}
	rs := out.Fleet
	names := fleet.PolicyNames()
	if len(rs) != len(names) {
		t.Fatalf("got %d results, want %d", len(rs), len(names))
	}
	for i, r := range rs {
		if r.Policy != names[i] {
			t.Fatalf("result %d is %q, want %q", i, r.Policy, names[i])
		}
		if r.Placed+r.Rejected != 5 {
			t.Fatalf("%s: placed %d + rejected %d != 5", r.Policy, r.Placed, r.Rejected)
		}
	}
	table := FleetComparisonTable(rs)
	for _, name := range names {
		if !contains(table, name) {
			t.Fatalf("comparison table misses policy %q:\n%s", name, table)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPairInterferenceCoversSuitePairs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pair co-location measurement")
	}
	it := PairInterference()
	paper := app.PaperSuite()
	n := len(paper)
	if want := n * (n + 1) / 2; it.Len() != want {
		t.Fatalf("interference table has %d pairs, want %d (all unordered pairs incl. self)", it.Len(), want)
	}
	for _, a := range paper {
		for _, b := range paper {
			s := it.Score(a.Name, b.Name)
			if s < 0 || s > 1 {
				t.Fatalf("score(%s,%s) = %g out of [0,1]", a.Name, b.Name, s)
			}
		}
	}
	if PairInterference() != it {
		t.Fatal("interference table must be cached per process")
	}
	// The cache is keyed by suite fingerprint, order-independently: the
	// same set requested in another order is the same (cached) table.
	reversed := []app.Profile{paper[2], paper[1], paper[0]}
	if PairInterferenceAmong(paper[:3]) != PairInterferenceAmong(reversed) {
		t.Fatal("suite fingerprint must be order-independent")
	}
	// A different subset measures its own table, and pairs shared with
	// another fingerprint score identically (trial keys depend only on
	// the profiles named).
	sub := PairInterferenceAmong(paper[:3])
	if sub == it {
		t.Fatal("distinct suites must not share a table")
	}
	if got, want := sub.Score(paper[0].Name, paper[1].Name), it.Score(paper[0].Name, paper[1].Name); got != want {
		t.Fatalf("shared pair scores differ across fingerprints: %v vs %v", got, want)
	}
}

// TestFleetComparisonStreamsMatchAcrossPolicies: the policy comparison
// must consolidate the identical arrival stream under every policy, on
// every repetition — the unit seed differs per policy (it derives from
// the trial key, which names the policy), so the stream must not be
// derived from it.
func TestFleetComparisonStreamsMatchAcrossPolicies(t *testing.T) {
	shape := exp.FleetShape{Machines: 2, Mix: string(fleet.MixShuffled), Requests: 6}
	cfg := quickFleetConfig()
	cfg.Reps = 3
	trials := []exp.Trial{}
	for _, pol := range []string{fleet.PolicyRoundRobin, fleet.PolicyLeastDemand} {
		s := shape
		s.Policy = pol
		tr := exp.FleetTrial(s)
		tr.Warmup, tr.Measure, tr.Seed = cfg.WarmupSeconds, cfg.Seconds, cfg.Seed
		trials = append(trials, tr)
	}
	out := RunTrials(trials, cfg)
	for rep := 0; rep < cfg.Reps; rep++ {
		a := out[0][rep].Fleet
		b := out[1][rep].Fleet
		if len(a.Requests) == 0 {
			t.Fatal("arrival stream not reported")
		}
		for i := range a.Requests {
			if a.Requests[i] != b.Requests[i] {
				t.Fatalf("rep %d request %d differs across policies: %s vs %s",
					rep, i, a.Requests[i], b.Requests[i])
			}
		}
		if rep > 0 && equalStrings(out[0][rep].Fleet.Requests, out[0][0].Fleet.Requests) {
			t.Fatalf("rep %d reuses rep 0's shuffled stream; reps must draw fresh streams", rep)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFleetShapeValidationPanicsEarly: a typo in the fixed policy/mix
// vocabulary must fail on the caller's goroutine with the valid names,
// not as a worker panic mid-grid.
func TestFleetShapeValidationPanicsEarly(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected a panic", name)
			}
		}()
		f()
	}
	cfg := quickFleetConfig()
	mustPanic("bad policy", func() {
		RunFleetConsolidation(exp.FleetShape{Machines: 1, Policy: "best-fit", Requests: 1}, cfg)
	})
	mustPanic("bad mix", func() {
		RunFleetConsolidation(exp.FleetShape{Machines: 1, Mix: "diurnal", Requests: 1}, cfg)
	})
}

// TestFleetTrialKeyedAndDeduplicated: fleet shapes key distinctly so
// grids can mix fleet and single-machine trials.
func TestFleetTrialKeys(t *testing.T) {
	a := exp.FleetTrial(exp.FleetShape{Machines: 2, Policy: "roundrobin", Requests: 4})
	b := exp.FleetTrial(exp.FleetShape{Machines: 3, Policy: "roundrobin", Requests: 4})
	c := exp.FleetTrial(exp.FleetShape{Machines: 2, Policy: "binpack", Requests: 4})
	plain := exp.Single(app.STK(), exp.DriverHuman)
	keys := map[string]bool{a.Key(): true, b.Key(): true, c.Key(): true, plain.Key(): true}
	if len(keys) != 4 {
		t.Fatalf("fleet trial keys collide: %v", keys)
	}
	if a.Key() != exp.FleetTrial(exp.FleetShape{Machines: 2, Policy: "roundrobin", Requests: 4}).Key() {
		t.Fatal("identical shapes must share a key")
	}
}

// TestMergeFleetExactPooledRTT pins the difference between the two
// cross-rep RTT aggregates on a known two-rep case: RTT averages each
// rep's quantile vector, so its P75 of {ten 10ms observations} and
// {ten 100ms observations} is the midpoint 55 — but the pooled
// 20-observation distribution's actual P75 is 100, which is what
// ExactRTT must report.
func TestMergeFleetExactPooledRTT(t *testing.T) {
	rep := func(value float64) TrialResult {
		var s stats.Sample
		raw := make([]float64, 10)
		for i := range raw {
			raw[i] = value
		}
		s.AddAll(raw)
		return TrialResult{Fleet: &FleetResult{
			RTT:      s.Summarize(),
			Machines: []MachineResult{{RawRTT: raw, RTT: s.Summarize()}},
		}}
	}
	merged := mergeFleet([]TrialResult{rep(10), rep(100)})
	if merged.RepsMerged != 2 {
		t.Fatalf("RepsMerged = %d, want 2", merged.RepsMerged)
	}
	if merged.RTT.P75 != 55 {
		t.Fatalf("averaged-quantile P75 = %v, want 55 (mean of the per-rep P75s)", merged.RTT.P75)
	}
	if merged.ExactRTT.P75 != 100 {
		t.Fatalf("exact pooled P75 = %v, want 100 (the pooled distribution's quantile)", merged.ExactRTT.P75)
	}
	if merged.ExactRTT.N != 20 {
		t.Fatalf("exact pooled N = %d, want all 20 observations", merged.ExactRTT.N)
	}
	if merged.ExactRTT.Mean != 55 {
		t.Fatalf("exact pooled mean = %v, want 55", merged.ExactRTT.Mean)
	}
	// Single-execution path: ExactRTT is filled by executeFleet's
	// exactPooledRTT over one result — cover the helper directly.
	one := rep(10).Fleet
	if got := exactPooledRTT([]*FleetResult{one}); got.P75 != 10 || got.N != 10 {
		t.Fatalf("single-result exact pool = %+v, want P75=10 N=10", got)
	}
}
