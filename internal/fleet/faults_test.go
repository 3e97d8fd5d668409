package fleet

import (
	"math"
	"testing"

	"pictor/internal/app"
	"pictor/internal/sim"
)

func TestFaultStreamDeterministicAndShaped(t *testing.T) {
	a, err := FaultStream(3, 3.0, 1.5, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := FaultStream(3, 3.0, 1.5, 12, 7)
	if len(a) != 3 {
		t.Fatalf("got %d machine rows, want 3", len(a))
	}
	downs := 0
	for mi := range a {
		if len(a[mi]) != 12 {
			t.Fatalf("machine %d has %d epochs, want 12", mi, len(a[mi]))
		}
		for e := range a[mi] {
			if a[mi][e] != b[mi][e] {
				t.Fatalf("machine %d epoch %d not deterministic: %v vs %v", mi, e, a[mi][e], b[mi][e])
			}
			if a[mi][e] == MachineDown {
				downs++
			}
			// Repair discipline: leaving Down always passes through
			// Cold before Up.
			if e > 0 && a[mi][e-1] == MachineDown && a[mi][e] == MachineUp {
				t.Fatalf("machine %d epoch %d: Down must repair through a cold-start epoch", mi, e)
			}
		}
	}
	if downs == 0 {
		t.Fatal("MTBF 3 over 12 epochs × 3 machines should crash someone")
	}
	// Adding a machine must not perturb the existing machines' schedules
	// (per-machine forks).
	wider, _ := FaultStream(4, 3.0, 1.5, 12, 7)
	for mi := 0; mi < 3; mi++ {
		for e := range a[mi] {
			if wider[mi][e] != a[mi][e] {
				t.Fatalf("machine %d epoch %d schedule changed when a machine was added", mi, e)
			}
		}
	}
	// MTBF 0 disables faults: all-up timeline.
	quiet, err := FaultStream(2, 0, 0, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range quiet {
		for e := range quiet[mi] {
			if quiet[mi][e] != MachineUp {
				t.Fatal("MTBF 0 must yield an all-up timeline")
			}
		}
	}
}

func TestFaultStreamRejectsBadParams(t *testing.T) {
	cases := []struct {
		name       string
		machines   int
		mtbf, mttr float64
		epochs     int
	}{
		{"negative mtbf", 2, -1, 1, 4},
		{"faulty without mttr", 2, 3, 0, 4},
		{"negative mttr", 2, 3, -2, 4},
		{"zero machines", 0, 3, 1, 4},
		{"zero epochs", 2, 3, 1, 0},
		{"NaN mtbf", 2, math.NaN(), 1, 4},
		{"infinite mtbf", 2, math.Inf(1), 1, 4},
		{"NaN mttr", 2, 3, math.NaN(), 4},
		{"infinite mttr", 2, 3, math.Inf(1), 4},
	}
	for _, c := range cases {
		if _, err := FaultStream(c.machines, c.mtbf, c.mttr, c.epochs, 1); err == nil {
			t.Fatalf("%s: expected an error", c.name)
		}
	}
	if err := ValidateFaultParams(0, 0); err != nil {
		t.Fatalf("MTBF 0 (faults off) must validate: %v", err)
	}
}

func TestDegradedProfile(t *testing.T) {
	d2, _ := app.ByName("D2")
	if got := DegradedProfile(d2, 0); got.Width != d2.Width || got.Height != d2.Height || got.UploadMBPerFrame != d2.UploadMBPerFrame {
		t.Fatal("tier 0 must return the profile unchanged")
	}
	prev := PredictedCPUDemand(&d2)
	for tier := 1; tier <= MaxDegradeTier; tier++ {
		p := DegradedProfile(d2, tier)
		if p.Name != d2.Name {
			t.Fatalf("tier %d renamed the profile: %q", tier, p.Name)
		}
		if p.Width >= DegradedProfile(d2, tier-1).Width {
			t.Fatalf("tier %d must shrink resolution: %d", tier, p.Width)
		}
		if p.UploadMBPerFrame >= DegradedProfile(d2, tier-1).UploadMBPerFrame {
			t.Fatalf("tier %d must shrink upload volume", tier)
		}
		d := PredictedCPUDemand(&p)
		if d >= prev {
			t.Fatalf("tier %d demand %g must shed load vs %g", tier, d, prev)
		}
		prev = d
	}
	// Clamps: beyond the deepest tier serves the deepest tier.
	deep, deepest := DegradedProfile(d2, MaxDegradeTier+5), DegradedProfile(d2, MaxDegradeTier)
	if deep.Width != deepest.Width || deep.Height != deepest.Height || deep.UploadMBPerFrame != deepest.UploadMBPerFrame {
		t.Fatal("tiers beyond MaxDegradeTier must clamp")
	}
	// A degenerate 1×1 profile must not collapse to zero pixels.
	tiny := d2
	tiny.Width, tiny.Height = 1, 1
	if p := DegradedProfile(tiny, MaxDegradeTier); p.Width < 1 || p.Height < 1 {
		t.Fatalf("degraded resolution must stay >= 1×1, got %d×%d", p.Width, p.Height)
	}
}

func TestOfferRetryBackoffAndRecovery(t *testing.T) {
	pol, _ := NewPolicy(PolicyLeastDemand, nil)
	f := NewHetero(1, []float64{8})
	c := NewChurn(f, pol)
	c.Retry = RetryPolicy{MaxAttempts: 2, BackoffEpochs: 1}
	re := variantOf("RE")

	blocker := &Session{ID: 0, Variant: re, Departs: 100}
	if !c.Offer(blocker, 0) {
		t.Fatal("blocker must place on an empty 8-core machine")
	}
	// Choke the machine so nothing else fits, then offer.
	f.Machines[0].Cores = 0.01
	s := &Session{ID: 1, Variant: re, Departs: 100}
	if c.Offer(s, 0) {
		t.Fatal("a choked machine must reject the offer")
	}
	if c.QueuedRetries() != 1 {
		t.Fatalf("rejection must enqueue a retry: queued=%d", c.QueuedRetries())
	}
	// Attempt 1 matures one backoff epoch later, not immediately.
	if r, _ := c.RetryDue(0); r != 0 {
		t.Fatal("no attempt may run before its backoff matures")
	}
	if r, rec := c.RetryDue(1); r != 1 || rec != 0 {
		t.Fatalf("attempt 1 must run at epoch 1 and fail: retried=%d recovered=%d", r, rec)
	}
	// Attempt 2 backs off exponentially: 1<<1 = 2 epochs after epoch 1.
	if r, _ := c.RetryDue(2); r != 0 {
		t.Fatal("attempt 2 matures at epoch 3, not 2")
	}
	f.Machines[0].Cores = 8
	if r, rec := c.RetryDue(3); r != 1 || rec != 1 {
		t.Fatalf("attempt 2 must recover once the machine has room: retried=%d recovered=%d", r, rec)
	}
	if on := machineOf(f, s); on != 0 || c.Active != 2 || c.QueuedRetries() != 0 {
		t.Fatalf("recovered session not placed: machine=%d active=%d queued=%d", on, c.Active, c.QueuedRetries())
	}
	if c.Lost != 0 {
		t.Fatalf("a recovered session is not lost: lost=%d", c.Lost)
	}
}

func TestRetryExhaustionAndDepartedPurge(t *testing.T) {
	pol, _ := NewPolicy(PolicyLeastDemand, nil)
	f := NewHetero(1, []float64{8})
	c := NewChurn(f, pol)
	c.Retry = RetryPolicy{MaxAttempts: 2, BackoffEpochs: 1}
	re := variantOf("RE")
	if !c.Offer(&Session{ID: 0, Variant: re, Departs: 100}, 0) {
		t.Fatal("blocker must place")
	}
	f.Machines[0].Cores = 0.01

	// Exhaustion: both attempts fail, the third never runs.
	s := &Session{ID: 1, Variant: re, Departs: 100}
	c.Offer(s, 0)
	c.RetryDue(1) // attempt 1 fails, re-enqueues for epoch 3
	c.RetryDue(3) // attempt 2 fails, attempts exhausted
	if c.QueuedRetries() != 0 || c.Lost != 1 {
		t.Fatalf("exhausted session must be lost: queued=%d lost=%d", c.QueuedRetries(), c.Lost)
	}

	// Departure purge: a queued session whose tenant leaves is dropped
	// without burning an attempt.
	gone := &Session{ID: 2, Variant: re, Departs: 2}
	c.Offer(gone, 0)
	if c.QueuedRetries() != 1 {
		t.Fatal("offer must enqueue")
	}
	if r, _ := c.RetryDue(2); r != 0 {
		t.Fatal("a departed tenant must not burn a retry attempt")
	}
	if c.QueuedRetries() != 0 || c.Lost != 2 {
		t.Fatalf("departed tenant must purge as lost: queued=%d lost=%d", c.QueuedRetries(), c.Lost)
	}

	// A session that would depart before its first attempt matures is
	// lost at offer time, not queued.
	eager := &Session{ID: 3, Variant: re, Departs: 1}
	c.Offer(eager, 0)
	if c.QueuedRetries() != 0 || c.Lost != 3 {
		t.Fatalf("hopeless retry must not enqueue: queued=%d lost=%d", c.QueuedRetries(), c.Lost)
	}

	// With retries disabled, Offer drops a rejection at once and counts
	// it as lost.
	c.Retry = RetryPolicy{}
	c.Offer(&Session{ID: 4, Variant: re, Departs: 100}, 0)
	if c.QueuedRetries() != 0 || c.Lost != 4 {
		t.Fatalf("retry-disabled rejection must drop: queued=%d lost=%d", c.QueuedRetries(), c.Lost)
	}
}

func TestEvictAllReversesPlacementAndEnqueues(t *testing.T) {
	pol, _ := NewPolicy(PolicyLeastDemand, nil)
	f := NewHetero(2, []float64{8})
	c := NewChurn(f, pol)
	c.Retry = RetryPolicy{MaxAttempts: 2, BackoffEpochs: 1}
	d2 := variantOf("D2")
	re := variantOf("RE")
	// Choke machine 1 so both sessions land on machine 0.
	f.Machines[1].Cores = 0.01
	s1 := &Session{ID: 0, Variant: d2, Departs: 100}
	s2 := &Session{ID: 1, Variant: re, Departs: 100}
	if !c.Offer(s1, 0) || !c.Offer(s2, 0) {
		t.Fatal("both sessions must place on machine 0")
	}
	c.DegradeOne(0) // give one session a tier to verify the reset
	if n := c.EvictAll(0, 0); n != 2 {
		t.Fatalf("evicted %d, want 2", n)
	}
	m := f.Machines[0]
	if len(m.Placed) != 0 || m.Demand != 0 {
		t.Fatalf("crashed machine not bit-exactly empty: placed=%d demand=%g", len(m.Placed), m.Demand)
	}
	if c.Active != 0 || c.QueuedRetries() != 2 {
		t.Fatalf("eviction bookkeeping: active=%d queued=%d", c.Active, c.QueuedRetries())
	}
	if machineOf(f, s1) != -1 || machineOf(f, s2) != -1 || s1.Variant.Tier != 0 || s2.Variant.Tier != 0 {
		t.Fatalf("evicted sessions must be unplaced at full fidelity: %+v %+v", s1, s2)
	}
	// Recovery after repair: both re-admit and the machine's demand is
	// recomputed identically to a fresh placement.
	if _, rec := c.RetryDue(1); rec != 2 {
		t.Fatalf("recovered %d, want 2", rec)
	}
	if want := sumProfiles(m.Placed); m.Demand != want || c.Active != 2 {
		t.Fatalf("recovered demand %g != recomputed %g (active %d)", m.Demand, want, c.Active)
	}
}

func TestDegradeUpgradeRoundTripRestoresDemand(t *testing.T) {
	pol, _ := NewPolicy(PolicyLeastDemand, nil)
	f := NewHetero(1, []float64{8})
	c := NewChurn(f, pol)
	d2 := variantOf("D2")
	re := variantOf("RE")
	sHeavy := &Session{ID: 0, Variant: d2, Departs: 100}
	sLight := &Session{ID: 1, Variant: re, Departs: 100}
	if !c.Offer(sHeavy, 0) || !c.Offer(sLight, 0) {
		t.Fatal("both sessions must place")
	}
	m := f.Machines[0]
	orig := m.Demand

	// The heaviest resident degrades first.
	if !c.DegradeOne(0) || sHeavy.Variant.Tier != 1 || sLight.Variant.Tier != 0 {
		t.Fatalf("heaviest session must degrade first: heavy=%d light=%d", sHeavy.Variant.Tier, sLight.Variant.Tier)
	}
	if m.Demand >= orig {
		t.Fatalf("degrading must shed demand: %g >= %g", m.Demand, orig)
	}
	if m.Placed[0].Variant.Profile.Width >= d2.Profile.Width {
		t.Fatal("the machine must serve the degraded resolution")
	}
	if got := c.DegradedResidents(0); got != 1 {
		t.Fatalf("degraded gauge = %d, want 1", got)
	}
	// Degrade to the floor: every call succeeds until everyone is at
	// the deepest tier, then refuses.
	for c.DegradeOne(0) {
	}
	if sHeavy.Variant.Tier != MaxDegradeTier || sLight.Variant.Tier != MaxDegradeTier {
		t.Fatalf("degrade floor: heavy=%d light=%d", sHeavy.Variant.Tier, sLight.Variant.Tier)
	}
	// Upgrade back up: demand must restore bit-identically.
	for c.UpgradeOne(0) {
	}
	if sHeavy.Variant.Tier != 0 || sLight.Variant.Tier != 0 {
		t.Fatalf("upgrades must restore full fidelity: heavy=%d light=%d", sHeavy.Variant.Tier, sLight.Variant.Tier)
	}
	if m.Demand != orig {
		t.Fatalf("degrade→upgrade round trip must restore demand bit-identically: %g != %g", m.Demand, orig)
	}
	if c.DegradedResidents(0) != 0 {
		t.Fatal("no degraded residents after the round trip")
	}
}

func TestUpgradeOneRespectsNominalCapacity(t *testing.T) {
	pol, _ := NewPolicy(PolicyLeastDemand, nil)
	f := NewHetero(1, []float64{8})
	c := NewChurn(f, pol)
	d2 := variantOf("D2")
	s := &Session{ID: 0, Variant: d2, Departs: 100}
	if !c.Offer(s, 0) {
		t.Fatal("session must place")
	}
	if !c.DegradeOne(0) {
		t.Fatal("degrade must succeed")
	}
	// Shrink the machine so restoring full fidelity would not fit
	// un-overcommitted: the upgrade must refuse rather than push the
	// machine back over its nominal capacity.
	f.Machines[0].Cores = f.Machines[0].Demand + 0.001
	if c.UpgradeOne(0) {
		t.Fatal("upgrade must refuse when the restored demand does not fit nominal capacity")
	}
	if s.Variant.Tier != 1 {
		t.Fatalf("refused upgrade must not change the tier: %d", s.Variant.Tier)
	}
}

func TestDegradeToFitShedsTowardNominal(t *testing.T) {
	pol, _ := NewPolicy(PolicyLeastDemand, nil)
	f := NewHetero(1, []float64{8})
	f.Overcommit = 3 // admit far past nominal capacity
	c := NewChurn(f, pol)
	d2 := variantOf("D2")
	for i := 0; c.Offer(&Session{ID: i, Variant: d2, Departs: 100}, 0); i++ {
	}
	m := f.Machines[0]
	if m.Demand <= m.Cores {
		t.Fatalf("setup must overcommit the machine: demand %g cores %g", m.Demand, m.Cores)
	}
	steps := c.DegradeToFit(0)
	if steps == 0 {
		t.Fatal("an overcommitted machine must degrade someone")
	}
	if m.Demand > m.Cores && c.DegradeToFit(0) != 0 {
		t.Fatal("DegradeToFit must stop only at nominal fit or the tier floor")
	}
	// Every resident is served at its recorded tier.
	for slot, s := range m.Placed {
		if want := DegradedProfile(d2.Profile, s.Variant.Tier).Width; s.Variant.Profile.Width != want {
			t.Fatalf("slot %d serves width %d, tier %d says %d",
				slot, s.Variant.Profile.Width, s.Variant.Tier, want)
		}
	}
}

// TestFaultRecoveryBookkeepingProperty mirrors
// TestChurnBookkeepingProperty over randomized *failure* schedules:
// across 30 seeds of crash→evict→retry→re-admit (with brown-out and
// migration pressure mixed in), checkOneRecord holds at every
// checkpoint — so recovery reverses bookkeeping exactly, leaving state
// identical to a history in which the crash never happened — no
// unavailable machine holds a resident, and the fleet drains
// bit-exactly empty, with every session accounted for as departed or
// lost.
func TestFaultRecoveryBookkeepingProperty(t *testing.T) {
	const epochs = 8
	for seed := int64(1); seed <= 30; seed++ {
		src, err := NewChurnSource(ArrivalConfig{Mix: MixHeavy, Rate: 3, MeanSessionEpochs: 2.5, Epochs: epochs, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		timeline, err := FaultStream(3, 2.5, 1.0, epochs, seed)
		if err != nil {
			t.Fatal(err)
		}
		pol, _ := NewPolicy(PolicyLeastCount, nil)
		f := NewHetero(3, []float64{8, 4})
		c := NewChurn(f, pol)
		c.Retry = RetryPolicy{MaxAttempts: 3, BackoffEpochs: 1}
		rng := sim.NewRNG(seed).Fork("test/fault-pressure")
		rtts := []float64{150, 120, 100}

		offered, departed := 0, 0
		check := func(when string, epoch int) {
			t.Helper()
			if msg := checkOneRecord(c, offered, departed); msg != "" {
				t.Fatalf("seed %d epoch %d (%s): %s", seed, epoch, when, msg)
			}
			for mi, m := range f.Machines {
				if m.State != MachineUp && len(m.Placed) != 0 {
					t.Fatalf("seed %d epoch %d (%s): unavailable machine %d holds %d placements",
						seed, epoch, when, mi, len(m.Placed))
				}
			}
		}

		last := 0
		for e := 0; e < epochs; e++ {
			departed += c.DepartDue(e)
			check("after departures", e)
			for mi, m := range f.Machines {
				st := timeline[mi][e]
				if st == MachineDown && m.State != MachineDown {
					m.State = st
					c.EvictAll(mi, e)
					check("after crash", e)
					continue
				}
				m.State = st
			}
			c.RetryDue(e)
			check("after retries", e)
			for _, s := range src.Next(e) {
				last = max(last, s.Departs)
				offered++
				c.Offer(s, e)
				check("after offer", e)
			}
			// Random brown-out and migration pressure on arbitrary
			// machines: the bookkeeping must hold regardless of why
			// the controllers fire.
			for i := 0; i < 2; i++ {
				mi := rng.Intn(len(f.Machines))
				switch rng.Intn(3) {
				case 0:
					c.DegradeToFit(mi)
				case 1:
					c.UpgradeOne(mi)
				default:
					c.MigrateOff(mi, rtts)
				}
				check("after pressure", e)
			}
		}
		// Run the horizon out: everything departs or drains as lost.
		departed += c.DepartDue(last)
		c.RetryDue(last) // purges every queued tenant as departed
		check("after the horizon", last)
		if c.Active != 0 || c.QueuedRetries() != 0 {
			t.Fatalf("seed %d: %d active, %d queued after the last departure epoch", seed, c.Active, c.QueuedRetries())
		}
		for mi, m := range f.Machines {
			if len(m.Placed) != 0 || m.Demand != 0 {
				t.Fatalf("seed %d: machine %d not bit-exactly empty after full churn: placed=%d demand=%g",
					seed, mi, len(m.Placed), m.Demand)
			}
		}
	}
}
