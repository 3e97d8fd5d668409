package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pictor/internal/app"
	"pictor/internal/fleet"
)

// updateGolden rewrites the pinned determinism fixtures. It must only be
// used deliberately, when a change is *supposed* to alter simulation
// results; the whole point of the fixtures is that performance work does
// not get to touch them.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden fixtures")

const (
	goldenPath          = "testdata/methodology_golden.txt"
	fleetGoldenPath     = "testdata/fleet_golden.txt"
	churnGoldenPath     = "testdata/churn_golden.txt"
	scenariosGoldenPath = "testdata/scenarios_golden.txt"
	faultsGoldenPath    = "testdata/faults_golden.txt"
)

// checkGolden compares got against the pinned fixture at path, or
// rewrites the fixture under -update-golden.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden to record): %v", err)
	}
	if string(want) != got {
		t.Fatalf("output diverged from the golden fixture %s:\n--- golden ---\n%s--- got ---\n%s", path, want, got)
	}
}

// renderMethodology produces a byte-stable rendering of the Figure-6 /
// Table-3 rows: %v on float64 prints the shortest representation that
// round-trips, so two renderings are equal iff every float is
// bit-identical.
func renderMethodology(prof app.Profile, rs []MethodologyResult) string {
	var sb strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&sb, "%s %s rtt=%+v err=%v\n", prof.Name, r.Method, r.RTT, r.ErrVsHuman)
	}
	return sb.String()
}

// TestGoldenMethodologyComparison is the regression oracle for the
// allocation-free hot-path work: a fixed-seed RunMethodologyComparison
// (with repetitions, so derived seeds are exercised) must stay
// byte-identical to the output recorded before the optimization pass,
// at -parallel 1 and at -parallel 8. Any buffer-reuse bug that lets one
// frame, layer activation, or sample alias another shows up here as a
// diff long before it would be diagnosable elsewhere.
func TestGoldenMethodologyComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("records a session and trains models")
	}
	prof := app.STK()
	base := QuickExperimentConfig()
	base.WarmupSeconds, base.Seconds = 1, 5
	base.Reps = 2

	render := func(parallel int) string {
		cfg := base
		cfg.Parallel = parallel
		return renderMethodology(prof, RunMethodologyComparison(prof, cfg))
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("methodology output diverges across parallelism:\n--- parallel 1 ---\n%s--- parallel 8 ---\n%s", seq, par)
	}
	checkGolden(t, goldenPath, seq)
}

// runSpecAt runs a spec through RunSpec at one parallelism level,
// failing the test if the spec does not validate.
func runSpecAt(t *testing.T, spec ExperimentSpec, parallel int) SpecOutcome {
	t.Helper()
	out, err := RunSpec(spec, parallel)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// renderFleet produces a byte-stable rendering of a policy comparison:
// every float prints via %v (shortest round-trip representation), so
// two renderings are equal iff every result is bit-identical.
func renderFleet(rs []FleetResult) string {
	var sb strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&sb, "%s/%s stream=%v placed=%d rejected=%d qos=%d watts=%v rtt=%+v\n",
			r.Policy, r.Mix, r.Requests, r.Placed, r.Rejected, r.QoSViolations, r.TotalPowerWatts, r.RTT)
		for _, m := range r.Machines {
			fmt.Fprintf(&sb, "  m%d demand=%v watts=%v rtt=%+v qos=%d\n",
				m.Machine, m.PredictedDemand, m.PowerWatts, m.RTT, m.QoSViolations)
			for _, ir := range m.Results {
				fmt.Fprintf(&sb, "    %s srv=%v cli=%v rtt=%+v\n", ir.Name, ir.ServerFPS, ir.ClientFPS, ir.RTT)
			}
		}
	}
	return sb.String()
}

// TestGoldenFleetConsolidation pins the fleet experiment the same way
// the methodology fixture pins the single-server path: a fixed-seed
// "fleet" spec run through RunSpec — all four placement policies over
// a randomized arrival mix, with repetitions so derived per-rep and
// per-machine seeds are exercised — must be byte-identical at
// -parallel 1 and 8 and must match the recorded fixture. The
// bin-packing policy pulls in the pair-interference measurement, so
// its determinism is pinned here too.
func TestGoldenFleetConsolidation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pair-interference measurement and 4 fleet trials")
	}
	spec := ExperimentSpec{
		Kind: SpecFleet, Warmup: 1, Seconds: 5, Reps: 2,
		Machines: 3,
		Mix:      string(fleet.MixShuffled),
		Requests: 8,
	}
	render := func(parallel int) string {
		return renderFleet(runSpecAt(t, spec, parallel).Fleet)
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("fleet output diverges across parallelism:\n--- parallel 1 ---\n%s--- parallel 8 ---\n%s", seq, par)
	}
	checkGolden(t, fleetGoldenPath, seq)
}

// TestGoldenFleetScenarios pins the registry-wide workload path: a
// fixed-seed "fleet" spec over the full nine-profile registry
// (Profiles = "all", the CLI's `-exp fleet -profiles all`) — all
// four placement policies, which pulls in the 9-solo + 45-pair
// interference measurement — must be byte-identical at -parallel 1 and
// 8 and must match the recorded fixture. Together with the unchanged
// pre-registry fixtures above, this proves the subset selector extends
// the key space without perturbing it.
func TestGoldenFleetScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the nine-profile pair-interference measurement and 4 fleet trials")
	}
	spec := ExperimentSpec{
		Kind: SpecFleet, Warmup: 1, Seconds: 5, Reps: 2,
		Machines: 4,
		Mix:      string(fleet.MixSuite),
		Requests: 12,
		Profiles: "all",
	}
	render := func(parallel int) string {
		return renderFleet(runSpecAt(t, spec, parallel).Fleet)
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("nine-profile fleet output diverges across parallelism:\n--- parallel 1 ---\n%s--- parallel 8 ---\n%s", seq, par)
	}
	// Every family beyond the paper's six must actually appear in the
	// consolidated stream — a sweep that never draws CAD/VV/CZ pins
	// nothing new.
	for _, name := range []string{"CAD", "VV", "CZ"} {
		if !strings.Contains(seq, name) {
			t.Fatalf("nine-profile sweep never placed %s:\n%s", name, seq)
		}
	}
	checkGolden(t, scenariosGoldenPath, seq)
}

// renderChurn produces a byte-stable rendering of a churn comparison:
// every float prints via %v, so two renderings are equal iff every
// epoch of every result is bit-identical.
func renderChurn(rs []ChurnResult) string {
	var sb strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&sb, "%s/%s migrate=%t arr=%d dep=%d mig=%d rej=%d qos=%d active=%v watts=%v rtt=%+v\n",
			r.Policy, r.Mix, r.Migrate, r.Arrivals, r.Departures, r.Migrations, r.Rejected,
			r.QoSViolations, r.MeanActive, r.MeanPowerWatts, r.RTT)
		for _, e := range r.Epochs {
			fmt.Fprintf(&sb, "  e%d active=%d arr=%d dep=%d mig=%d rej=%d qos=%d watts=%v rtt=%+v\n",
				e.Epoch, e.Active, e.Arrivals, e.Departures, e.Migrations, e.Rejected,
				e.QoSViolations, e.PowerWatts, e.RTT)
		}
	}
	return sb.String()
}

// TestGoldenFleetChurn pins the epoch-based churn simulation the way
// the fleet fixture pins one-shot admission: a fixed-seed "churn" spec
// run through RunSpec — Poisson arrivals with departures over a
// heterogeneous (8,4-core) fleet, migration off and on, with
// repetitions so derived per-rep, per-epoch and per-machine seeds are
// all exercised — must be byte-identical at -parallel 1 and 8 and must
// match the recorded fixture.
func TestGoldenFleetChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2 churn trials × 2 reps × 2 parallelism levels")
	}
	spec := ExperimentSpec{
		Kind: SpecChurn, Warmup: 1, Seconds: 5, Reps: 2,
		Machines:    3,
		Policy:      fleet.PolicyRoundRobin,
		Mix:         string(fleet.MixHeavy),
		CoreClasses: "8,4",
		Epochs:      6,
		Rate:        2,
		Duration:    3,
	}
	render := func(parallel int) string {
		return renderChurn(runSpecAt(t, spec, parallel).Churn)
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("churn output diverges across parallelism:\n--- parallel 1 ---\n%s--- parallel 8 ---\n%s", seq, par)
	}
	checkGolden(t, churnGoldenPath, seq)
}

// renderFaults produces a byte-stable rendering of a fault comparison:
// the churn fields plus the fault/failover/degradation counters and the
// availability metric, every float via %v.
func renderFaults(rs []ChurnResult) string {
	var sb strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&sb, "%s/%s faulty=%t retry=%t degrade=%t arr=%d dep=%d mig=%d rej=%d crash=%d evict=%d retried=%d rec=%d lost=%d degr=%d qos=%d avail=%v(%d/%d) active=%v watts=%v rtt=%+v\n",
			r.Policy, r.Mix, r.Faulty, r.Retry, r.Degrade, r.Arrivals, r.Departures,
			r.Migrations, r.Rejected, r.Crashes, r.Evicted, r.Retried, r.Recovered,
			r.Lost, r.DegradedSessionEpochs, r.QoSViolations,
			r.Availability, r.CompliantSessionEpochs, r.OfferedSessionEpochs,
			r.MeanActive, r.MeanPowerWatts, r.RTT)
		for _, e := range r.Epochs {
			fmt.Fprintf(&sb, "  e%d active=%d arr=%d dep=%d mig=%d rej=%d crash=%d evict=%d retry=%d rec=%d degr=%d qos=%d watts=%v rtt=%+v\n",
				e.Epoch, e.Active, e.Arrivals, e.Departures, e.Migrations, e.Rejected,
				e.Crashes, e.Evicted, e.Retried, e.Recovered, e.Degraded,
				e.QoSViolations, e.PowerWatts, e.RTT)
		}
	}
	return sb.String()
}

// TestGoldenFleetFaults pins the fault-injection path the way the churn
// fixture pins fault-free churn: a fixed-seed "faults" spec run through
// RunSpec —
// healthy baseline, drop-on-failure, and retry+degrade recovery over a
// heterogeneous heavy-mix fleet, with repetitions so the derived fault
// schedule, retry queue and brown-out tiers are all exercised across
// seeds — must be byte-identical at -parallel 1 and 8 and must match
// the recorded fixture. The test also asserts the robustness claims the
// subsystem exists for: both faulty variants share the healthy run's
// tenant population and crash identically, and recovery never reports
// worse availability than dropping.
func TestGoldenFleetFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 3 churn trials × 2 reps × 2 parallelism levels")
	}
	static := false // the fixture runs without the migration controller
	spec := ExperimentSpec{
		Kind: SpecFaults, Warmup: 1, Seconds: 5, Reps: 2,
		Machines:    5,
		Policy:      fleet.PolicyLeastDemand,
		Mix:         string(fleet.MixHeavy),
		CoreClasses: "8,8,4",
		Epochs:      8,
		Rate:        3,
		Duration:    4,
		Migrate:     &static,
		MTBF:        5,
		MTTR:        1,
		Retries:     3,
		Backoff:     1,
		Degrade:     true,
	}
	run := func(parallel int) []ChurnResult {
		return runSpecAt(t, spec, parallel).Churn
	}
	rsSeq := run(1)
	seq, par := renderFaults(rsSeq), renderFaults(run(8))
	if seq != par {
		t.Fatalf("fault output diverges across parallelism:\n--- parallel 1 ---\n%s--- parallel 8 ---\n%s", seq, par)
	}
	healthy, drop, resilient := rsSeq[0], rsSeq[1], rsSeq[2]
	if healthy.Faulty || !drop.Faulty || !resilient.Faulty {
		t.Fatalf("order must be {healthy, drop, resilient}: %+v", rsSeq)
	}
	if healthy.Arrivals != drop.Arrivals || drop.Arrivals != resilient.Arrivals {
		t.Fatalf("variants must churn the identical tenant population: %d/%d/%d arrivals",
			healthy.Arrivals, drop.Arrivals, resilient.Arrivals)
	}
	if drop.Crashes == 0 {
		t.Fatal("MTBF 4 over 6 epochs × 3 machines × 2 reps should crash someone")
	}
	if drop.Crashes != resilient.Crashes {
		t.Fatalf("both faulty variants must run the identical failure schedule: %d vs %d crashes",
			drop.Crashes, resilient.Crashes)
	}
	for e := range drop.Epochs {
		if drop.Epochs[e].Crashes != resilient.Epochs[e].Crashes {
			t.Fatalf("epoch %d crash counts differ across recovery settings", e)
		}
	}
	if resilient.Availability <= drop.Availability {
		t.Fatalf("retry+degrade must improve availability over drop-on-failure at this operating point: %v <= %v",
			resilient.Availability, drop.Availability)
	}
	if resilient.Recovered == 0 {
		t.Fatal("the resilient variant never recovered a session — failover is not exercised")
	}
	if resilient.DegradedSessionEpochs == 0 {
		t.Fatal("the resilient variant never served a degraded session-epoch — brown-out is not exercised")
	}
	checkGolden(t, faultsGoldenPath, seq)
}
