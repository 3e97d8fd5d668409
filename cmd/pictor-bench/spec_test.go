package main

import (
	"flag"
	"testing"

	"pictor/internal/core"
)

// parseSpecFlags parses args against a fresh registration of the
// fleet, churn and faults flags.
func parseSpecFlags(t *testing.T, args ...string) *specFlags {
	t.Helper()
	fs := flag.NewFlagSet("pictor-bench", flag.ContinueOnError)
	sf := newSpecFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sf
}

// TestSpecFlagsBuildSpec pins how the flags become the spec behind
// -exp fleet, churn and faults: -fidelity -1 means full fidelity (no
// cohort), a fleet spec carries no churn knob whatever the churn flags
// say, and the spec runs at the windows Normalize sets — -seconds 0 is
// the 45 s default the server applies, not a zero-length window.
func TestSpecFlagsBuildSpec(t *testing.T) {
	cfg := core.DefaultExperimentConfig()

	if s := parseSpecFlags(t, "-fidelity", "-1").spec(core.SpecChurn, cfg); s.Fidelity != nil {
		t.Fatalf("-fidelity -1 must leave Fidelity nil, got %d", *s.Fidelity)
	}
	if s := parseSpecFlags(t, "-fidelity", "0").spec(core.SpecFaults, cfg); s.Fidelity == nil || *s.Fidelity != 0 {
		t.Fatalf("-fidelity 0 must select an all-surrogate fleet, got %v", s.Fidelity)
	}

	churnFlags := parseSpecFlags(t, "-rate", "3", "-epochs", "4", "-migrate=false", "-mtbf", "5",
		"-retries", "2", "-fidelity", "1", "-occupancy", "-stream", "-schedule", "diurnal", "-peak", "6", "-period", "4")
	fl := churnFlags.spec(core.SpecFleet, cfg)
	if fl.Rate != 0 || fl.Duration != 0 || fl.Epochs != 0 || fl.Migrate != nil || fl.MTBF != 0 ||
		fl.Retries != 0 || fl.Backoff != 0 || fl.Fidelity != nil || fl.Occupancy || fl.Stream ||
		fl.Schedule != "" || fl.Peak != 0 || fl.Period != 0 {
		t.Fatalf("a fleet spec must carry no churn knob: %+v", fl)
	}
	if _, err := fl.Normalize(); err != nil {
		t.Fatalf("fleet spec from churn flags: %v", err)
	}
	ch := churnFlags.spec(core.SpecChurn, cfg)
	if ch.Rate != 3 || ch.Epochs != 4 || ch.Migrate == nil || *ch.Migrate || ch.Retries != 2 || !ch.Stream {
		t.Fatalf("churn flags must reach the churn spec: %+v", ch)
	}

	cfg.Seconds = 0
	for _, kind := range []string{core.SpecFleet, core.SpecChurn, core.SpecFaults} {
		n, err := parseSpecFlags(t).spec(kind, cfg).Normalize()
		if err != nil {
			t.Fatalf("%s: default flags must normalize: %v", kind, err)
		}
		if n.Seconds != 45 {
			t.Fatalf("%s: -seconds 0 normalizes to %g s windows, want 45", kind, n.Seconds)
		}
	}
}
