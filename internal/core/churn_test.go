package core

import (
	"strings"
	"testing"

	"pictor/internal/exp"
	"pictor/internal/fleet"
	"pictor/internal/stats"
)

func quickChurnShape() exp.FleetShape {
	return exp.FleetShape{
		Machines:          3,
		Policy:            fleet.PolicyLeastCount,
		Mix:               string(fleet.MixHeavy),
		CoreClasses:       "8,4",
		Epochs:            4,
		ArrivalRate:       2.5,
		MeanSessionEpochs: 2,
		Migrate:           true,
	}
}

func TestRunFleetChurnShape(t *testing.T) {
	r := RunFleetChurn(quickChurnShape(), quickFleetConfig())
	if len(r.Epochs) != 4 {
		t.Fatalf("got %d epoch rows, want 4", len(r.Epochs))
	}
	if r.Policy != fleet.PolicyLeastCount || r.Mix != string(fleet.MixHeavy) || !r.Migrate {
		t.Fatalf("shape echo wrong: %+v", r)
	}
	if r.RepsMerged != 1 {
		t.Fatalf("RepsMerged = %d, want 1", r.RepsMerged)
	}
	totals := ChurnResult{}
	active := 0
	for e, er := range r.Epochs {
		if er.Epoch != e {
			t.Fatalf("epoch row %d labeled %d", e, er.Epoch)
		}
		// Session conservation: this epoch's active population is last
		// epoch's, minus departures, plus the placed arrivals.
		active += er.Arrivals - er.Rejected - er.Departures
		if er.Active != active {
			t.Fatalf("epoch %d: active %d, conservation says %d", e, er.Active, active)
		}
		if er.Active < 0 || er.Rejected > er.Arrivals {
			t.Fatalf("epoch %d counters out of range: %+v", e, er)
		}
		if er.PowerWatts <= 0 {
			t.Fatalf("epoch %d: fleet power must include idle watts, got %g", e, er.PowerWatts)
		}
		if er.Active > 0 && er.RTT.N == 0 {
			t.Fatalf("epoch %d has %d active sessions but no pooled RTT", e, er.Active)
		}
		totals.Arrivals += er.Arrivals
		totals.Departures += er.Departures
		totals.Migrations += er.Migrations
		totals.Rejected += er.Rejected
		totals.QoSViolations += er.QoSViolations
	}
	if r.Arrivals != totals.Arrivals || r.Departures != totals.Departures ||
		r.Migrations != totals.Migrations || r.Rejected != totals.Rejected ||
		r.QoSViolations != totals.QoSViolations {
		t.Fatalf("rollups disagree with per-epoch sums: %+v vs %+v", r, totals)
	}
	if r.Arrivals == 0 {
		t.Fatal("rate 2.5 over 4 epochs should arrive someone")
	}
	if r.Epochs[len(r.Epochs)-1].Migrations != 0 {
		t.Fatal("the final epoch must not migrate — there is no next epoch to help")
	}
	table := ChurnTable(r)
	if !strings.Contains(table, "epoch") || !strings.Contains(table, "migrate") {
		t.Fatalf("churn table misses expected columns:\n%s", table)
	}
}

// TestChurnComparisonSharesPopulation: the static and migrated trials
// must churn the identical tenant population on every repetition — the
// unit seed encodes the Migrate flag, so the schedule must not derive
// from it.
func TestChurnComparisonSharesPopulation(t *testing.T) {
	testChurnComparisonSharesPopulation(t, 1)
}

// TestChurnComparisonSharesPopulationSeedZero: "-seed 0" (derive
// everything) must still hand both sides one tenant population — the
// stream base falls back to the grid's key-independent base seed, never
// to the unit seed, which encodes the Migrate flag.
func TestChurnComparisonSharesPopulationSeedZero(t *testing.T) {
	testChurnComparisonSharesPopulation(t, 0)
}

func testChurnComparisonSharesPopulation(t *testing.T, seed int64) {
	t.Helper()
	sh := quickChurnShape()
	rs := runSpecAt(t, ExperimentSpec{
		Kind: SpecChurn, Warmup: 1, Seconds: 5, Seed: &seed, Reps: 2,
		Machines: sh.Machines, Policy: sh.Policy, Mix: sh.Mix, CoreClasses: sh.CoreClasses,
		Epochs: sh.Epochs, Rate: sh.ArrivalRate, Duration: sh.MeanSessionEpochs,
	}, 0).Churn
	if len(rs) != 2 {
		t.Fatalf("got %d results, want {static, migrated}", len(rs))
	}
	static, migrated := rs[0], rs[1]
	if static.Migrate || !migrated.Migrate {
		t.Fatalf("order must be {static, migrated}: %v %v", static.Migrate, migrated.Migrate)
	}
	if static.Migrations != 0 {
		t.Fatalf("static placement reported %d migrations", static.Migrations)
	}
	if static.Arrivals != migrated.Arrivals || static.Departures != migrated.Departures {
		t.Fatalf("populations differ: static %d/%d vs migrated %d/%d arrivals/departures",
			static.Arrivals, static.Departures, migrated.Arrivals, migrated.Departures)
	}
	for e := range static.Epochs {
		if static.Epochs[e].Arrivals != migrated.Epochs[e].Arrivals {
			t.Fatalf("epoch %d arrival counts differ across migrate settings", e)
		}
	}
	table := ChurnComparisonTable(rs)
	if !strings.Contains(table, "static") || !strings.Contains(table, "migrate") {
		t.Fatalf("comparison table misses modes:\n%s", table)
	}
}

// TestMergeFleetDeepCopiesRepZero: the merged multi-rep FleetResult
// used to alias rep 0's Machines (and Requests) slices — mutating the
// merged value silently corrupted rep 0 and vice versa — and carried no
// provenance mark for its rep-0 per-machine rows.
func TestMergeFleetDeepCopiesRepZero(t *testing.T) {
	mk := func() TrialResult {
		return TrialResult{Fleet: &FleetResult{
			Policy:   "roundrobin",
			Requests: []string{"STK", "RE"},
			Machines: []MachineResult{{
				Machine: 0,
				Results: []InstanceResult{{Name: "STK#0", Benchmark: "STK"}},
				RTT:     stats.Summary{N: 4, Mean: 100},
			}},
			Placed: 2, TotalPowerWatts: 50,
			RTT: stats.Summary{N: 4, Mean: 100},
		}}
	}
	reps := []TrialResult{mk(), mk()}
	merged := mergeFleet(reps)
	if merged.RepsMerged != 2 {
		t.Fatalf("RepsMerged = %d, want 2", merged.RepsMerged)
	}
	merged.Machines[0].Machine = 99
	merged.Machines[0].Results[0].Name = "clobbered"
	merged.Requests[0] = "clobbered"
	if reps[0].Fleet.Machines[0].Machine == 99 {
		t.Fatal("merged result aliases rep 0's Machines slice")
	}
	if reps[0].Fleet.Machines[0].Results[0].Name == "clobbered" {
		t.Fatal("merged result aliases rep 0's per-machine Results slice")
	}
	if reps[0].Fleet.Requests[0] == "clobbered" {
		t.Fatal("merged result aliases rep 0's Requests slice")
	}
	if single := mergeFleet(reps[:1]); single.RepsMerged != 1 {
		t.Fatalf("single-rep RepsMerged = %d, want 1", single.RepsMerged)
	}
}

// TestChurnShapeValidationPanicsEarly extends the fleet validation
// contract to the churn vocabulary and the Requests >= 1 rule.
func TestChurnShapeValidationPanicsEarly(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected a panic", name)
			}
		}()
		f()
	}
	cfg := quickFleetConfig()
	mustPanic("non-positive requests", func() {
		RunFleetConsolidation(exp.FleetShape{Machines: 1, Requests: 0}, cfg)
	})
	mustPanic("bad core classes", func() {
		RunFleetConsolidation(exp.FleetShape{Machines: 1, Requests: 1, CoreClasses: "8,nope"}, cfg)
	})
	mustPanic("zero churn rate", func() {
		RunFleetChurn(exp.FleetShape{Machines: 1, Epochs: 2, MeanSessionEpochs: 1}, cfg)
	})
	mustPanic("zero churn duration", func() {
		RunFleetChurn(exp.FleetShape{Machines: 1, Epochs: 2, ArrivalRate: 1}, cfg)
	})
	mustPanic("bad churn mix", func() {
		RunFleetChurn(exp.FleetShape{Machines: 1, Epochs: 2, ArrivalRate: 1, MeanSessionEpochs: 1, Mix: "diurnal"}, cfg)
	})
	// Entry points must reject a shape of the wrong kind up front — a
	// one-shot shape reaching the churn merger (or vice versa) would
	// otherwise nil-deref mid-run with an unattributable panic.
	mustPanic("one-shot shape on RunFleetChurn", func() {
		RunFleetChurn(exp.FleetShape{Machines: 2, Requests: 6}, cfg)
	})
	mustPanic("churn shape on RunFleetConsolidation", func() {
		RunFleetConsolidation(quickChurnShape(), cfg)
	})
	// Fractional core classes below 1 would round to 0 cluster cores
	// and silently execute as the 8-core default.
	mustPanic("sub-1 core class", func() {
		RunFleetConsolidation(exp.FleetShape{Machines: 1, Requests: 1, CoreClasses: "0.4"}, cfg)
	})
}

// TestFleetShapeKeysStableAndChurnDistinct: churn and heterogeneity
// fields must key distinctly, while every pre-churn shape keeps its
// exact historical key — derived per-rep seeds (and the committed
// golden fixtures) depend on it.
func TestFleetShapeKeysStableAndChurnDistinct(t *testing.T) {
	legacy := exp.FleetTrial(exp.FleetShape{Machines: 3, Mix: "shuffled", Requests: 8})
	const want = "w=0;m=0;s=0|fleet:n=3:pol=:mix=shuffled:req=8:cores=0"
	if legacy.Key() != want {
		t.Fatalf("pre-churn fleet key changed:\n got %q\nwant %q", legacy.Key(), want)
	}
	base := quickChurnShape()
	variants := []exp.FleetShape{base}
	v := base
	v.Migrate = false
	variants = append(variants, v)
	v = base
	v.Epochs = 5
	variants = append(variants, v)
	v = base
	v.ArrivalRate = 3
	variants = append(variants, v)
	v = base
	v.MeanSessionEpochs = 4
	variants = append(variants, v)
	v = base
	v.CoreClasses = "8,16"
	variants = append(variants, v)
	keys := map[string]bool{}
	for _, s := range variants {
		keys[exp.FleetTrial(s).Key()] = true
	}
	if len(keys) != len(variants) {
		t.Fatalf("churn shape variants collide: %d distinct keys for %d shapes", len(keys), len(variants))
	}
}
