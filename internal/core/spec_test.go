package core

import (
	"math"
	"strings"
	"testing"

	"pictor/internal/fleet"
)

func normOK(t *testing.T, s ExperimentSpec) ExperimentSpec {
	t.Helper()
	n, err := s.Normalize()
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", s, err)
	}
	return n
}

func normErr(t *testing.T, s ExperimentSpec, wantSub string) {
	t.Helper()
	if _, err := s.Normalize(); err == nil || !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("Normalize(%+v) error = %v, want containing %q", s, err, wantSub)
	}
}

func TestSpecNormalizeDefaults(t *testing.T) {
	n := normOK(t, ExperimentSpec{Kind: "grid"})
	if n.Seconds != 45 || n.Warmup != 3 || n.Reps != 1 || n.MaxInstances != 4 {
		t.Fatalf("grid defaults wrong: %+v", n)
	}
	if n.Seed == nil || *n.Seed != 1 {
		t.Fatalf("seed must default to 1, got %v", n.Seed)
	}
	// An explicit seed 0 means "derive" and must survive normalization.
	zero := int64(0)
	n = normOK(t, ExperimentSpec{Kind: "grid", Seed: &zero})
	if n.Seed == nil || *n.Seed != 0 {
		t.Fatalf("explicit seed 0 must survive, got %v", n.Seed)
	}

	n = normOK(t, ExperimentSpec{Kind: "fleet"})
	if n.Machines != 4 || n.Requests != 12 {
		t.Fatalf("fleet defaults wrong: machines %d requests %d", n.Machines, n.Requests)
	}

	n = normOK(t, ExperimentSpec{Kind: "churn"})
	if n.Rate != 1.6 || n.Duration != 5 || n.Epochs != 10 || n.Backoff != 1 {
		t.Fatalf("churn defaults wrong: %+v", n)
	}
	if n.Migrate == nil || !*n.Migrate {
		t.Fatal("churn must default migrate on")
	}
	if n.MTBF != 0 || n.MTTR != 0 {
		t.Fatalf("churn must not default fault knobs on, got mtbf %g mttr %g", n.MTBF, n.MTTR)
	}
}

// TestSpecFaultKnobsDefaultIndependently pins the -mttr clobbering fix:
// an explicit repair time must survive the mtbf default, each knob
// defaults on its own, and a repair time without a failure process is
// an error, not silently ignored.
func TestSpecFaultKnobsDefaultIndependently(t *testing.T) {
	n := normOK(t, ExperimentSpec{Kind: "faults"})
	if n.MTBF != 5 || n.MTTR != 1 {
		t.Fatalf("unset fault knobs must default to 5/1, got %g/%g", n.MTBF, n.MTTR)
	}
	n = normOK(t, ExperimentSpec{Kind: "faults", MTTR: 3, MTBF: 5})
	if n.MTTR != 3 {
		t.Fatalf("explicit mttr must survive, got %g", n.MTTR)
	}
	n = normOK(t, ExperimentSpec{Kind: "faults", MTBF: 7})
	if n.MTBF != 7 || n.MTTR != 1 {
		t.Fatalf("mtbf alone must keep 7 and default mttr to 1, got %g/%g", n.MTBF, n.MTTR)
	}
	normErr(t, ExperimentSpec{Kind: "faults", MTTR: 3}, "mttr")
	normErr(t, ExperimentSpec{Kind: "churn", MTTR: 3}, "mttr")
}

func TestSpecNormalizeRejects(t *testing.T) {
	normErr(t, ExperimentSpec{}, "kind is required")
	normErr(t, ExperimentSpec{Kind: "figs"}, "unknown kind")
	normErr(t, ExperimentSpec{Kind: "grid", Profiles: "NOPE"}, "profiles")
	normErr(t, ExperimentSpec{Kind: "grid", Machines: 3}, `"machines" does not apply`)
	normErr(t, ExperimentSpec{Kind: "fleet", Epochs: 5}, `"epochs" does not apply`)
	normErr(t, ExperimentSpec{Kind: "churn", Requests: 9}, `"requests" does not apply`)
	normErr(t, ExperimentSpec{Kind: "fleet", Policy: "wat"}, "policy")
	normErr(t, ExperimentSpec{Kind: "fleet", Requests: -1}, "requests")
	normErr(t, ExperimentSpec{Kind: "churn", Retries: -1}, "retries")
	normErr(t, ExperimentSpec{Kind: "grid", Seconds: -1}, "seconds")
}

// TestSpecScheduleKnobs pins the traffic-schedule vocabulary: the knobs
// lower onto the fleet shape, stream selects the rollup-only sink, and
// every misuse — out-of-scope kind, peak without a bending schedule, an
// unknown schedule, a peak below the base rate — fails normalization
// with the shared fleet validation messages.
func TestSpecScheduleKnobs(t *testing.T) {
	n := normOK(t, ExperimentSpec{Kind: "churn", Schedule: "diurnal", Peak: 4, Period: 6})
	sh := n.Shape()
	if sh.RateSchedule != "diurnal" || sh.PeakRate != 4 || sh.PeriodEpochs != 6 || sh.RollupOnly {
		t.Fatalf("schedule knobs must lower onto the shape: %+v", sh)
	}
	n = normOK(t, ExperimentSpec{Kind: "faults", Schedule: "flash", Peak: 9, Period: 3, Stream: true})
	if sh := n.Shape(); !sh.RollupOnly || sh.RateSchedule != "flash" {
		t.Fatalf("stream must lower to a rollup-only shape: %+v", sh)
	}
	// A plain constant schedule is valid and changes nothing.
	normOK(t, ExperimentSpec{Kind: "churn", Schedule: "constant"})

	normErr(t, ExperimentSpec{Kind: "grid", Schedule: "diurnal"}, `"schedule" does not apply`)
	normErr(t, ExperimentSpec{Kind: "fleet", Stream: true}, `"stream" does not apply`)
	normErr(t, ExperimentSpec{Kind: "fleet", Peak: 4}, `"peak" does not apply`)
	normErr(t, ExperimentSpec{Kind: "churn", Peak: 4}, "without a non-constant schedule")
	normErr(t, ExperimentSpec{Kind: "churn", Schedule: "constant", Period: 6}, "without a non-constant schedule")
	normErr(t, ExperimentSpec{Kind: "churn", Schedule: "wat"}, "unknown rate schedule")
	normErr(t, ExperimentSpec{Kind: "churn", Rate: 5, Schedule: "diurnal", Peak: 2, Period: 6}, "peak rate")
	normErr(t, ExperimentSpec{Kind: "churn", Schedule: "flash", Peak: 9}, "period")
}

// TestSpecArrivalRateBounded: a spec's rate and peak are capped at
// fleet.MaxArrivalRate, so no posted spec can ask the Poisson sampler
// for a mean it never works down.
func TestSpecArrivalRateBounded(t *testing.T) {
	above := math.Nextafter(fleet.MaxArrivalRate, math.Inf(1))
	normOK(t, ExperimentSpec{Kind: "churn", Rate: fleet.MaxArrivalRate})
	normOK(t, ExperimentSpec{Kind: "faults", Schedule: "diurnal", Peak: fleet.MaxArrivalRate, Period: 6})
	for _, rate := range []float64{above, 1e300} {
		normErr(t, ExperimentSpec{Kind: "churn", Rate: rate}, "arrival rate")
		normErr(t, ExperimentSpec{Kind: "churn", Schedule: "flash", Peak: rate, Period: 6}, "peak rate")
	}
}

func TestSpecTrialsMatchComparisonBatches(t *testing.T) {
	fleetSpec := normOK(t, ExperimentSpec{Kind: "fleet", Machines: 2, Requests: 4})
	if n := len(fleetSpec.Trials()); n != 4 {
		t.Fatalf("fleet spec must lower to one trial per policy, got %d", n)
	}
	churnSpec := normOK(t, ExperimentSpec{Kind: "churn", Machines: 2, Epochs: 3})
	ct := churnSpec.Trials()
	if len(ct) != 2 || ct[0].Fleet.Migrate || !ct[1].Fleet.Migrate {
		t.Fatalf("churn spec must lower to {static, migrated}, got %+v", ct)
	}
	faultSpec := normOK(t, ExperimentSpec{Kind: "faults", Machines: 2, Epochs: 3})
	ft := faultSpec.Trials()
	if len(ft) != 3 || ft[0].Fleet.Faulty() || !ft[1].Fleet.Faulty() || ft[2].Fleet.RetryAttempts == 0 {
		t.Fatalf("faults spec must lower to {healthy, drop, resilient}, got %+v", ft)
	}
}

// TestSuiteGridTrialsDedupCanonically: the exported grid trial list is
// deduplicated on trial keys, so no two entries can share the identity
// the server's result cache keys on.
func TestSuiteGridTrialsDedupCanonically(t *testing.T) {
	cfg := QuickExperimentConfig()
	cfg.Profiles = "STK"
	trials := SuiteGridTrials(cfg)
	if len(trials) == 0 {
		t.Fatal("grid plan produced no trials")
	}
	seen := map[string]string{}
	for _, tr := range trials {
		k := tr.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("trials %q and %q share key %q", prev, tr.ID, k)
		}
		seen[k] = tr.ID
	}
}
