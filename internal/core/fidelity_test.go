package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pictor/internal/exp"
	"pictor/internal/fleet"
)

const fidelityGoldenPath = "testdata/fidelity_golden.txt"

// The pinned accuracy contract of the surrogate tier on the fixture
// shape below: every surrogate machine-epoch's mean RTT and modelled
// power must stay within fidelityMachineTolerance of the full
// per-frame simulation, and the horizon rollups within the tighter
// fidelityHorizonTolerance (single machine-epochs see the full
// simulator's run-to-run noise undiluted; the rollup pools it away).
// The values are deliberately pinned, not derived: if the surrogate
// drifts (a calibration change, a curve-evaluation bug), this is the
// test that says so.
const (
	fidelityMachineTolerance = 0.40
	fidelityHorizonTolerance = 0.25
)

// fidelityShape is the churn shape both fidelity tests run: the golden
// churn fixture's heterogeneous fleet, migration off so placement is a
// pure function of the arrival stream and the fidelity split cannot
// feed back into who lands where.
func fidelityShape() exp.FleetShape {
	return exp.FleetShape{
		Machines:          3,
		Policy:            fleet.PolicyRoundRobin,
		Mix:               string(fleet.MixHeavy),
		CoreClasses:       "8,4",
		Epochs:            6,
		ArrivalRate:       2,
		MeanSessionEpochs: 3,
	}
}

// renderFidelity extends renderChurn with the per-(machine, epoch)
// occupancy rows, every float via %v, so two renderings are equal iff
// every measurement — tier flags included — is bit-identical.
func renderFidelity(r ChurnResult) string {
	var sb strings.Builder
	sb.WriteString(renderChurn([]ChurnResult{r}))
	for _, e := range r.Epochs {
		for _, o := range e.Occupancy {
			fmt.Fprintf(&sb, "  occ e%d m%d state=%d res=%d degr=%d demand=%v surrogate=%t rtt=%v watts=%v\n",
				e.Epoch, o.Machine, o.State, o.Residents, o.Degraded,
				o.Demand, o.Surrogate, o.RTTMean, o.PowerWatts)
		}
	}
	return sb.String()
}

// TestFidelityFullCohortMatchesBaseline is the fidelity-tier property
// test: running churn through the epoch loop with every fidelity knob
// at its expensive setting must reproduce the plain path
// byte-for-byte. SurrogateTail with the full cohort sampled changes the
// trial key (and therefore the key-derived unit seed) but no execution
// seed — everything derives from the stream base — so the rollups must
// not move by a single bit; likewise OccupancyDetail is pure recording
// and must not perturb the simulation it observes.
func TestFidelityFullCohortMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 3 churn trials × 2 reps")
	}
	shape := fidelityShape()
	cfg := QuickExperimentConfig()
	cfg.WarmupSeconds, cfg.Seconds = 1, 5
	cfg.Reps = 2

	baseline := renderChurn([]ChurnResult{RunFleetChurn(shape, cfg)})

	full := shape
	full.SurrogateTail = true
	full.FidelitySampled = full.Machines
	if got := renderChurn([]ChurnResult{RunFleetChurn(full, cfg)}); got != baseline {
		t.Fatalf("full-cohort SurrogateTail diverges from the plain path:\n--- baseline ---\n%s--- full cohort ---\n%s", baseline, got)
	}

	occ := shape
	occ.OccupancyDetail = true
	r := RunFleetChurn(occ, cfg)
	if got := renderChurn([]ChurnResult{r}); got != baseline {
		t.Fatalf("occupancy recording perturbed the simulation:\n--- baseline ---\n%s--- occupancy on ---\n%s", baseline, got)
	}
	for _, e := range r.Epochs {
		if len(e.Occupancy) != shape.Machines {
			t.Fatalf("epoch %d recorded %d occupancy rows, want %d", e.Epoch, len(e.Occupancy), shape.Machines)
		}
	}
}

// relErr is the relative error of got against a full-fidelity want.
func relErr(want, got float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestGoldenFidelityTiers is the fidelity-error fixture: the fixture
// shape with machine 0 on full simulation and the tail on the
// calibrated surrogate must (1) stay byte-identical at -parallel 1 and
// 8 and match the pinned golden — surrogate determinism is per-session,
// not per-schedule; (2) reproduce the full run's machine-0 rows
// byte-for-byte — the sampled cohort really runs the real simulator,
// and the split cannot leak into it; and (3) track the full run's
// surrogate-tier machines and horizon rollups within the pinned
// relative tolerance — the accuracy contract the cheap tier is sold on.
func TestGoldenFidelityTiers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 3 churn trials × 2 reps × 2 parallelism levels plus calibration")
	}
	full := fidelityShape()
	full.OccupancyDetail = true
	mixed := full
	mixed.SurrogateTail = true
	mixed.FidelitySampled = 1

	base := QuickExperimentConfig()
	base.WarmupSeconds, base.Seconds = 1, 5
	base.Reps = 2
	run := func(sh exp.FleetShape, parallel int) ChurnResult {
		cfg := base
		cfg.Parallel = parallel
		return RunFleetChurn(sh, cfg)
	}

	fullR := run(full, 1)
	mixSeq := run(mixed, 1)
	seq, par := renderFidelity(mixSeq), renderFidelity(run(mixed, 8))
	if seq != par {
		t.Fatalf("fidelity-tier output diverges across parallelism:\n--- parallel 1 ---\n%s--- parallel 8 ---\n%s", seq, par)
	}

	if len(fullR.Epochs) != len(mixSeq.Epochs) {
		t.Fatalf("epoch counts differ: %d vs %d", len(fullR.Epochs), len(mixSeq.Epochs))
	}
	worst := 0.0
	for ei := range fullR.Epochs {
		fo, mo := fullR.Epochs[ei].Occupancy, mixSeq.Epochs[ei].Occupancy
		for mi := range fo {
			w, g := fo[mi], mo[mi]
			if mi == 0 {
				// The sampled cohort: identical placement, identical derived
				// cluster seed, identical engine — the row must not move a bit
				// (the tier flag is the one field the split is allowed to own,
				// and machine 0 is inside the cohort in both runs).
				if fmt.Sprintf("%+v", w) != fmt.Sprintf("%+v", g) {
					t.Fatalf("epoch %d machine 0 diverged between full and mixed fidelity:\nfull:  %+v\nmixed: %+v", ei, w, g)
				}
				continue
			}
			// The surrogate tail: same residents (placement is
			// fidelity-independent with migration off), measurements within
			// tolerance.
			if !g.Surrogate {
				t.Fatalf("epoch %d machine %d should run the surrogate tier: %+v", ei, mi, g)
			}
			if w.Residents != g.Residents || w.Demand != g.Demand {
				t.Fatalf("epoch %d machine %d placement diverged across fidelity tiers:\nfull:  %+v\nmixed: %+v", ei, mi, w, g)
			}
			if e := relErr(w.PowerWatts, g.PowerWatts); e > fidelityMachineTolerance {
				t.Fatalf("epoch %d machine %d surrogate power off by %.1f%% (full %v, surrogate %v; tolerance %.0f%%)",
					ei, mi, 100*e, w.PowerWatts, g.PowerWatts, 100*fidelityMachineTolerance)
			} else if e > worst {
				worst = e
			}
			if w.RTTMean > 0 {
				if e := relErr(w.RTTMean, g.RTTMean); e > fidelityMachineTolerance {
					t.Fatalf("epoch %d machine %d surrogate RTT off by %.1f%% (full %v ms, surrogate %v ms; tolerance %.0f%%)",
						ei, mi, 100*e, w.RTTMean, g.RTTMean, 100*fidelityMachineTolerance)
				} else if e > worst {
					worst = e
				}
			}
		}
	}
	for _, c := range []struct {
		name      string
		want, got float64
	}{
		{"RTT mean", fullR.RTT.Mean, mixSeq.RTT.Mean},
		{"RTT p99", fullR.RTT.P99, mixSeq.RTT.P99},
		{"mean fleet power", fullR.MeanPowerWatts, mixSeq.MeanPowerWatts},
	} {
		if e := relErr(c.want, c.got); e > fidelityHorizonTolerance {
			t.Fatalf("horizon %s off by %.1f%% (full %v, mixed %v; tolerance %.0f%%)",
				c.name, 100*e, c.want, c.got, 100*fidelityHorizonTolerance)
		} else if e > worst {
			worst = e
		}
	}
	t.Logf("worst surrogate relative error on the fixture: %.1f%%", 100*worst)

	checkGolden(t, fidelityGoldenPath, seq)
}
