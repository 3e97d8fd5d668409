package fleet

import (
	"math"
	"testing"

	"pictor/internal/sim"
)

// TestChurnStreamDeterministicAndShaped: two sources over one config
// yield the identical schedule, session IDs are the arrival sequence,
// and every session is unplaced, arrives in the epoch that yields it
// and runs at least one epoch.
func TestChurnStreamDeterministicAndShaped(t *testing.T) {
	for _, mix := range Mixes() {
		cfg := ArrivalConfig{Mix: mix, Rate: 2, MeanSessionEpochs: 3, Epochs: 10, Seed: 7}
		a, err := NewChurnSource(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		b, _ := NewChurnSource(cfg)
		total := 0
		id := 0
		for e := 0; e < cfg.Epochs; e++ {
			ae, be := a.Next(e), b.Next(e)
			if len(ae) != len(be) {
				t.Fatalf("%s: epoch %d arrival counts differ across identical sources", mix, e)
			}
			for i, s := range ae {
				o := be[i]
				if s.ID != o.ID || s.Variant.Profile.Name != o.Variant.Profile.Name || s.Departs != o.Departs {
					t.Fatalf("%s: epoch %d session %d not deterministic: %+v vs %+v", mix, e, i, s, o)
				}
				if s.ID != id {
					t.Fatalf("%s: session IDs must be the arrival sequence: got %d want %d", mix, s.ID, id)
				}
				id++
				if s.Arrive != e {
					t.Fatalf("%s: session %d reports arrival epoch %d, generated in %d", mix, s.ID, s.Arrive, e)
				}
				if s.Departs <= s.Arrive {
					t.Fatalf("%s: session %d departs at %d, arrives at %d — must run >= 1 epoch", mix, s.ID, s.Departs, s.Arrive)
				}
				if s.Machine != -1 {
					t.Fatalf("%s: generated sessions must be unplaced", mix)
				}
			}
			total += len(ae)
		}
		if total == 0 {
			t.Fatalf("%s: rate 2.0 over 10 epochs produced no arrivals", mix)
		}
	}
}

func TestChurnStreamRejectsBadParams(t *testing.T) {
	cases := []struct {
		name       string
		rate, mean float64
		epochs     int
	}{
		{"zero epochs", 1, 1, 0},
		{"negative epochs", 1, 1, -3},
		{"zero rate", 0, 1, 4},
		{"negative rate", -1, 1, 4},
		{"zero duration", 1, 0, 4},
		{"NaN rate", math.NaN(), 1, 4},
		{"infinite rate", math.Inf(1), 1, 4},
		{"NaN duration", 1, math.NaN(), 4},
		{"infinite duration", 1, math.Inf(1), 4},
	}
	for _, c := range cases {
		if _, err := NewChurnSource(ArrivalConfig{Mix: MixSuite, Rate: c.rate, MeanSessionEpochs: c.mean, Epochs: c.epochs, Seed: 1}); err == nil {
			t.Fatalf("%s: expected an error", c.name)
		}
	}
	if _, err := NewChurnSource(ArrivalConfig{Mix: "diurnal", Rate: 1, MeanSessionEpochs: 1, Epochs: 4, Seed: 1}); err == nil {
		t.Fatal("unknown mix must error")
	}
}

func TestPoissonMeanAndDeterminism(t *testing.T) {
	g := sim.NewRNG(3)
	const n, lambda = 20000, 2.5
	sum := 0
	for i := 0; i < n; i++ {
		sum += g.Poisson(lambda)
	}
	if mean := float64(sum) / n; math.Abs(mean-lambda) > 0.1 {
		t.Fatalf("Poisson(%g) sample mean %g too far off", lambda, mean)
	}
	a, b := sim.NewRNG(9), sim.NewRNG(9)
	for i := 0; i < 100; i++ {
		if a.Poisson(1.7) != b.Poisson(1.7) {
			t.Fatal("Poisson must be deterministic for equal seeds")
		}
	}
	if sim.NewRNG(1).Poisson(0) != 0 || sim.NewRNG(1).Poisson(-2) != 0 {
		t.Fatal("non-positive mean must yield 0")
	}
	// Means past ~745 would underflow exp(-mean) to 0 and silently cap
	// samples there; the chunked implementation must track the mean.
	big := sim.NewRNG(5)
	sum = 0
	const bigN, bigLambda = 200, 2000.0
	for i := 0; i < bigN; i++ {
		sum += big.Poisson(bigLambda)
	}
	if mean := float64(sum) / bigN; math.Abs(mean-bigLambda) > 20 {
		t.Fatalf("Poisson(%g) sample mean %g — large means must not cap near 745", bigLambda, mean)
	}
}

// TestChurnBookkeepingProperty is the satellite property test: over
// randomized arrival/departure/migration sequences, (a) no machine's
// demand ever goes negative, (b) a machine's demand always equals the
// sum over its placed profiles (departures exactly reverse place
// bookkeeping), and (c) once every session has departed the fleet is
// bit-exactly empty.
func TestChurnBookkeepingProperty(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		const epochs = 8
		src, err := NewChurnSource(ArrivalConfig{Mix: MixHeavy, Rate: 3, MeanSessionEpochs: 2.5, Epochs: epochs, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		pol, _ := NewPolicy(PolicyLeastCount, nil)
		f := NewHetero(3, []float64{8, 4})
		c := NewChurn(f, pol)
		rng := sim.NewRNG(seed).Fork("test/migrations")
		rtts := []float64{150, 120, 100}

		check := func(when string, epoch int) {
			t.Helper()
			for mi, m := range f.Machines {
				if m.Demand < 0 {
					t.Fatalf("seed %d epoch %d (%s): machine %d demand negative: %g", seed, epoch, when, mi, m.Demand)
				}
				if want := sumProfiles(m.Placed); m.Demand != want {
					t.Fatalf("seed %d epoch %d (%s): machine %d demand %g != placed sum %g",
						seed, epoch, when, mi, m.Demand, want)
				}
				if len(c.Resident(mi)) != len(m.Placed) {
					t.Fatalf("seed %d epoch %d (%s): machine %d session/placement misalignment: %d vs %d",
						seed, epoch, when, mi, len(c.Resident(mi)), len(m.Placed))
				}
				for slot, s := range c.Resident(mi) {
					if s.Variant != m.Placed[slot] {
						t.Fatalf("seed %d epoch %d (%s): machine %d slot %d holds %s, session says %s",
							seed, epoch, when, mi, slot, m.Placed[slot].Profile.Name, s.Variant.Profile.Name)
					}
					if s.Machine != mi {
						t.Fatalf("seed %d epoch %d (%s): session %d thinks it is on %d, found on %d",
							seed, epoch, when, s.ID, s.Machine, mi)
					}
				}
			}
		}

		last := 0
		for e := 0; e < epochs; e++ {
			c.DepartDue(e)
			check("after departures", e)
			for _, s := range src.Next(e) {
				last = max(last, s.Departs)
				c.Offer(s, e)
				check("after arrival", e)
			}
			// Random migration pressure: poke arbitrary machines, not
			// just RTT violators — the bookkeeping must hold regardless
			// of why the controller fires.
			for i := 0; i < 2; i++ {
				c.MigrateOff(rng.Intn(len(f.Machines)), rtts)
				check("after migration", e)
			}
		}
		// Run the horizon out: everything departs eventually.
		c.DepartDue(last)
		if c.Active != 0 {
			t.Fatalf("seed %d: %d sessions still active after the last departure epoch", seed, c.Active)
		}
		for mi, m := range f.Machines {
			if len(m.Placed) != 0 || m.Demand != 0 {
				t.Fatalf("seed %d: machine %d not bit-exactly empty after full churn: placed=%d demand=%g",
					seed, mi, len(m.Placed), m.Demand)
			}
		}
	}
}

// sumProfiles recomputes the predicted demand of the placed variants'
// profiles, left to right.
func sumProfiles(vs []*Variant) float64 {
	d := 0.0
	for _, v := range vs {
		d += PredictedCPUDemand(&v.Profile)
	}
	return d
}

func TestChurnArriveRejectsWhenFull(t *testing.T) {
	pol, _ := NewPolicy(PolicyLeastDemand, nil)
	f := NewHetero(1, []float64{1})
	f.Overcommit = 1
	c := NewChurn(f, pol)
	d2 := variantOf("D2")
	placedAny := false
	for i := 0; i < 5; i++ {
		if c.Offer(&Session{ID: i, Variant: d2, Departs: 100}, 0) {
			placedAny = true
		}
	}
	if c.Active+c.Rejected != 5 {
		t.Fatalf("active %d + rejected %d must account for 5 arrivals", c.Active, c.Rejected)
	}
	if c.Rejected == 0 {
		t.Fatal("a 1-core machine cannot hold five D2s")
	}
	_ = placedAny
}

func TestChurnMigrateOffMovesHeaviestAndKeepsWhenNowhere(t *testing.T) {
	pol, _ := NewPolicy(PolicyLeastDemand, nil)
	f := NewHetero(2, []float64{8})
	c := NewChurn(f, pol)
	d2 := variantOf("D2")
	re := variantOf("RE")
	// Force both sessions onto machine 0: offer them with machine 1
	// full.
	f.Machines[1].Cores = 0.1 // nothing fits
	s1 := &Session{ID: 0, Variant: re, Departs: 10}
	s2 := &Session{ID: 1, Variant: d2, Departs: 10}
	if !c.Offer(s1, 0) || !c.Offer(s2, 0) {
		t.Fatal("both sessions must land on machine 0")
	}
	// Nowhere to go: machine 1 cannot hold anything.
	rtts := []float64{200, 50}
	if c.MigrateOff(0, rtts) {
		t.Fatal("migration must not fire when no other machine is feasible")
	}
	// Open machine 1 back up: the heavier D2 must move, not the RE.
	f.Machines[1].Cores = 8
	if !c.MigrateOff(0, rtts) {
		t.Fatal("migration must fire once a target is feasible")
	}
	if s2.Machine != 1 || s1.Machine != 0 {
		t.Fatalf("the highest-demand session must move: RE on %d, D2 on %d", s1.Machine, s2.Machine)
	}
	if c.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", c.Migrations)
	}
	if got := len(f.Machines[1].Placed); got != 1 || f.Machines[1].Placed[0].Profile.Name != "D2" {
		t.Fatalf("machine 1 placement wrong after migration: %v", names(f.Machines[1].Placed))
	}
}

// TestChurnMigrateOffRejectsHotTargets: a machine measuring above the
// QoS ceiling must never be a migration target, even when it measures
// cooler than the source — dumping load on an already-violating machine
// just moves (and worsens) the violation.
func TestChurnMigrateOffRejectsHotTargets(t *testing.T) {
	pol, _ := NewPolicy(PolicyLeastCount, nil)
	f := NewHetero(2, []float64{8})
	c := NewChurn(f, pol)
	re := variantOf("RE")
	s := &Session{ID: 0, Variant: re, Departs: 10}
	if !c.Offer(s, 0) {
		t.Fatal("arrival must place")
	}
	// Machine 1 is empty (plenty of headroom) but measures above the
	// ceiling: no migration.
	if c.MigrateOff(0, []float64{QoSMaxRTTMs + 40, QoSMaxRTTMs + 10}) {
		t.Fatal("must not migrate onto a machine already past the QoS ceiling")
	}
	// Same headroom, target within the ceiling: migrate.
	if !c.MigrateOff(0, []float64{QoSMaxRTTMs + 40, QoSMaxRTTMs - 30}) {
		t.Fatal("must migrate once the target measures within the ceiling")
	}
	if s.Machine != 1 {
		t.Fatalf("session on machine %d, want 1", s.Machine)
	}
}

func TestNewHeteroCyclesClasses(t *testing.T) {
	f := NewHetero(5, []float64{8, 4})
	want := []float64{8, 4, 8, 4, 8}
	for i, m := range f.Machines {
		if m.Cores != want[i] {
			t.Fatalf("machine %d has %g cores, want %g", i, m.Cores, want[i])
		}
	}
	if f := NewHetero(2, nil); f.Machines[0].Cores != DefaultMachineCores {
		t.Fatal("empty class list must select the default core count")
	}
}

func TestParseCoreClasses(t *testing.T) {
	got, err := ParseCoreClasses("8, 4,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 8 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("ParseCoreClasses = %v", got)
	}
	if out, err := ParseCoreClasses(""); err != nil || out != nil {
		t.Fatal("empty input must parse to nil without error")
	}
	for _, bad := range []string{"8,zero", "8,,4", "0", "-4", "8;4", "0.4", "8,NaN", "Inf", "-Inf", "1e300", "9.3e18"} {
		if _, err := ParseCoreClasses(bad); err == nil {
			t.Fatalf("%q must fail to parse", bad)
		}
	}
}
