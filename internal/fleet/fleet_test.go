package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"pictor/internal/app"
)

func names(vs []*Variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Profile.Name
	}
	return out
}

// residentNames lists the profiles machine m serves, in placement order.
func residentNames(m *Machine) []string {
	out := make([]string, len(m.Placed))
	for i, s := range m.Placed {
		out[i] = s.Variant.Profile.Name
	}
	return out
}

// admitAll offers each request once, at epoch 0 with no failover — the
// one-shot fleet's admission — and returns how many were rejected.
func admitAll(f *Fleet, reqs []*Variant, p Placement) int {
	c := NewChurn(f, p)
	rejected := 0
	for i, v := range reqs {
		if !c.Offer(&Session{ID: i, Variant: v, Departs: 1}, 0) {
			rejected++
		}
	}
	return rejected
}

// machineOf returns the index of the machine whose Placed list holds s,
// or -1 when none does.
func machineOf(f *Fleet, s *Session) int {
	for _, m := range f.Machines {
		for _, r := range m.Placed {
			if r == s {
				return m.Index
			}
		}
	}
	return -1
}

// variantOf returns the full-fidelity variant of a registered profile,
// from a catalog of its own.
func variantOf(name string) *Variant {
	p, ok := app.ByName(name)
	if !ok {
		panic("profile " + name + " not registered")
	}
	return NewCatalog([]app.Profile{p}).Variant(0, 0)
}

func TestPredictedCPUDemandOrdersSuite(t *testing.T) {
	d := map[string]float64{}
	for _, p := range app.Suite() {
		d[p.Name] = PredictedCPUDemand(&p)
		if d[p.Name] <= 0 {
			t.Fatalf("%s: demand must be positive, got %g", p.Name, d[p.Name])
		}
	}
	// The known heavyweight (Dota2's worker threads) must outrank the
	// known lightweight (Red Eclipse's thin engine); the ordering is
	// what placement policies rely on.
	if d["D2"] <= d["RE"] {
		t.Fatalf("demand heuristic misorders the suite: D2=%g RE=%g", d["D2"], d["RE"])
	}
}

func TestRequestStreamDeterministicAndSized(t *testing.T) {
	for _, mix := range Mixes() {
		a, err := RequestStreamFrom(nil, mix, 24, 7)
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		b, _ := RequestStreamFrom(nil, mix, 24, 7)
		if !reflect.DeepEqual(names(a), names(b)) {
			t.Fatalf("%s: stream not deterministic", mix)
		}
		if len(a) != 24 {
			t.Fatalf("%s: got %d requests, want 24", mix, len(a))
		}
	}
	if _, err := RequestStreamFrom(nil, "nope", 4, 1); err == nil {
		t.Fatal("unknown mix must error")
	}
}

// TestValidateMix pins the mix vocabulary: every listed mix and the
// empty default pass, and a typo fails with the message a stream over
// it reports.
func TestValidateMix(t *testing.T) {
	cases := map[Mix]bool{"": true, "heavvy": false, "Heavy": false}
	for _, mix := range Mixes() {
		cases[mix] = true
	}
	for mix, ok := range cases {
		err := ValidateMix(mix)
		if ok != (err == nil) {
			t.Fatalf("ValidateMix(%q) = %v, want ok=%v", mix, err, ok)
		}
		if _, serr := RequestStreamFrom(nil, mix, 1, 1); fmt.Sprint(serr) != fmt.Sprint(err) {
			t.Fatalf("mix %q: ValidateMix says %v, RequestStreamFrom says %v", mix, err, serr)
		}
	}
}

// TestRequestStreamRejectsNonPositiveLength: the old behaviour silently
// clamped n < 1 to one request, so "-requests 0" quietly ran a
// single-instance fleet; it must fail loudly like an unknown mix does.
func TestRequestStreamRejectsNonPositiveLength(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := RequestStreamFrom(nil, MixSuite, n, 1); err == nil {
			t.Fatalf("n = %d must error, not clamp to 1", n)
		}
	}
}

func TestRequestStreamSuiteCycles(t *testing.T) {
	reqs, err := RequestStreamFrom(nil, MixSuite, 13, 99)
	if err != nil {
		t.Fatal(err)
	}
	// The default stream draws from the paper's six, not the full
	// registry — pre-registry streams must stay byte-identical.
	suite := app.PaperSuite()
	for i, r := range reqs {
		if r.Profile.Name != suite[i%len(suite)].Name {
			t.Fatalf("request %d = %s, want %s", i, r.Profile.Name, suite[i%len(suite)].Name)
		}
	}
}

// TestRequestStreamFromDrawsActiveSuite: streams over an explicit
// workload set draw only from it, for every mix, and the heavy mix
// honors the profiles' declared HeavyWeight.
func TestRequestStreamFromDrawsActiveSuite(t *testing.T) {
	suite, err := app.Resolve("all")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, p := range suite {
		allowed[p.Name] = true
	}
	for _, mix := range Mixes() {
		reqs, err := RequestStreamFrom(suite, mix, 200, 11)
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		seen := map[string]bool{}
		for _, r := range reqs {
			if !allowed[r.Profile.Name] {
				t.Fatalf("%s: drew %s, not in the active suite", mix, r.Profile.Name)
			}
			seen[r.Profile.Name] = true
		}
		for _, name := range []string{"CAD", "VV", "CZ"} {
			if !seen[name] {
				t.Fatalf("%s: 200 draws over the full registry never produced %s", mix, name)
			}
		}
	}
	// Heavy mix over the full registry: VV (weight 3) must outdraw CZ
	// (weight 1).
	reqs, err := RequestStreamFrom(suite, MixHeavy, 900, 5)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, r := range reqs {
		count[r.Profile.Name]++
	}
	if count["VV"] <= count["CZ"] {
		t.Fatalf("heavy mix must favor VV over CZ by declared weight: VV=%d CZ=%d", count["VV"], count["CZ"])
	}
}

// TestChurnStreamFromDrawsActiveSuite: churn schedules honor the
// explicit workload set too.
func TestChurnStreamFromDrawsActiveSuite(t *testing.T) {
	suite, err := app.Resolve("CAD,VV,CZ")
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 12
	src, err := NewChurnSource(ArrivalConfig{Suite: suite, Mix: MixShuffled, Rate: 3, MeanSessionEpochs: 2, Epochs: epochs, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"CAD": true, "VV": true, "CZ": true}
	arrivals := 0
	for e := 0; e < epochs; e++ {
		for _, s := range src.Next(e) {
			arrivals++
			if !allowed[s.Variant.Profile.Name] {
				t.Fatalf("churn drew %s, not in the active suite", s.Variant.Profile.Name)
			}
		}
	}
	if arrivals == 0 {
		t.Fatal("12 epochs at rate 3 produced no arrivals")
	}
}

func TestRequestStreamHeavyIsHeavy(t *testing.T) {
	reqs, err := RequestStreamFrom(nil, MixHeavy, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, r := range reqs {
		count[r.Profile.Name]++
	}
	if count["D2"] <= count["RE"] {
		t.Fatalf("heavy mix must favor D2 over RE: D2=%d RE=%d", count["D2"], count["RE"])
	}
}

func TestRoundRobinCycles(t *testing.T) {
	f := NewHetero(3, []float64{8})
	reqs, _ := RequestStreamFrom(nil, MixSuite, 6, 1)
	rejected := admitAll(f, reqs, &RoundRobin{})
	for i, m := range f.Machines {
		if len(m.Placed) != 2 {
			t.Fatalf("machine %d got %d instances, want 2", i, len(m.Placed))
		}
	}
	if rejected != 0 {
		t.Fatalf("nothing should be rejected, got %d", rejected)
	}
}

func TestLeastLoadedCountBalances(t *testing.T) {
	f := NewHetero(4, []float64{8})
	reqs, _ := RequestStreamFrom(nil, MixShuffled, 8, 5)
	admitAll(f, reqs, LeastLoadedCount{})
	for i, m := range f.Machines {
		if len(m.Placed) != 2 {
			t.Fatalf("machine %d got %d instances, want 2", i, len(m.Placed))
		}
	}
}

func TestLeastLoadedDemandPicksLightestMachine(t *testing.T) {
	f := NewHetero(2, []float64{8})
	d2 := variantOf("D2")
	re := variantOf("RE")
	// D2 on machine 0, then two REs: the first RE goes to the empty
	// machine 1, the second must also go to 1 (D2 outweighs one RE).
	admitAll(f, []*Variant{d2, re, re}, LeastLoadedDemand{})
	if got := len(f.Machines[1].Placed); got != 2 {
		t.Fatalf("machine 1 got %d instances, want 2 (demand-aware spread)", got)
	}
}

func TestAdmissionRejectsWhenFull(t *testing.T) {
	f := NewHetero(1, []float64{1}) // one tiny machine
	f.Overcommit = 1
	reqs, _ := RequestStreamFrom(nil, MixSuite, 5, 1)
	rejected := admitAll(f, reqs, LeastLoadedCount{})
	placed := len(f.Machines[0].Placed)
	if placed+rejected != 5 {
		t.Fatalf("placed %d + rejected %d must account for all 5 requests", placed, rejected)
	}
	if rejected == 0 {
		t.Fatal("a 1-core machine cannot hold the whole stream")
	}
}

func TestBinPackSeparatesHostileProfiles(t *testing.T) {
	stk := variantOf("STK")
	re := variantOf("RE")
	it := NewInterference()
	it.Set("STK", "STK", 0.5) // STK is hostile to itself
	it.Set("STK", "RE", 0.0)  // but compatible with RE

	f := NewHetero(2, []float64{8})
	pol := &BinPack{Interference: it}
	admitAll(f, []*Variant{stk, stk, re, re}, pol)
	stks := make([]int, len(f.Machines))
	for i, m := range f.Machines {
		for _, name := range residentNames(m) {
			if name == "STK" {
				stks[i]++
			}
		}
	}
	// The self-hostile STKs must land on different machines; the
	// compatible REs then pack wherever is fullest.
	if stks[0] != 1 || stks[1] != 1 {
		t.Fatalf("STK spread = %v; binpack must split the hostile pair across machines", stks)
	}
}

func TestBinPackPacksCompatibleProfilesTightly(t *testing.T) {
	re := variantOf("RE")
	f := NewHetero(3, []float64{8})
	// No interference data: everything is compatible, so binpack must
	// fill machine 0 before touching the others (keeping machines free).
	admitAll(f, []*Variant{re, re, re}, &BinPack{})
	if got := len(f.Machines[0].Placed); got != 3 {
		t.Fatalf("machine 0 got %d of 3 compatible instances; binpack must pack, not spread", got)
	}
}

// TestBinPackTieBreakRobustToAccumulationOrder: interference cost is a
// float sum over a machine's placed instances, so two machines holding
// the same profiles in different orders can disagree in the last ulp
// ((0.1+0.2)+0.3 != 0.3+(0.2+0.1)). The documented tie-break — equal
// cost, equal demand → lower index — must still treat that as a tie.
func TestBinPackTieBreakRobustToAccumulationOrder(t *testing.T) {
	stk := variantOf("STK")
	re := variantOf("RE")
	d2 := variantOf("D2")
	im := variantOf("IM")
	it := NewInterference()
	it.Set("IM", "STK", 0.1)
	it.Set("IM", "RE", 0.2)
	it.Set("IM", "D2", 0.3)

	// fleetOf builds a fleet of roomy machines holding the given
	// residents, in placement order.
	fleetOf := func(orders ...[]*Variant) *Fleet {
		f := NewHetero(len(orders), []float64{64})
		for i, order := range orders {
			for _, v := range order {
				f.Machines[i].place(&Session{Variant: v})
			}
		}
		return f
	}
	// Same multiset, opposite accumulation orders: costs differ by one
	// ulp, demands are the same sum reordered.
	forward, backward := []*Variant{stk, re, d2}, []*Variant{d2, re, stk}
	f := fleetOf(forward, backward)
	costOf := func(m *Machine) float64 {
		c := 0.0
		for _, name := range residentNames(m) {
			c += it.Score("IM", name)
		}
		return c
	}
	if costOf(f.Machines[0]) == costOf(f.Machines[1]) {
		t.Skip("float accumulation happens to agree on this platform; tie-break not exercised")
	}
	pol := &BinPack{Interference: it}
	if got := pol.Pick(f, im); got != 0 {
		t.Fatalf("ulp-level cost difference broke the lower-index tie-break: picked %d", got)
	}
	// Order mustn't matter: with the orders swapped, machine 0 still wins.
	if got := pol.Pick(fleetOf(backward, forward), im); got != 0 {
		t.Fatalf("tie-break must pick the first (lowest-index) machine, picked %d", got)
	}
}

// TestBinPackPrefersFullerOnCostTie pins the documented second key:
// among cost-tied machines, the fuller one wins even when it has the
// higher index.
func TestBinPackPrefersFullerOnCostTie(t *testing.T) {
	re := variantOf("RE")
	d2 := variantOf("D2")
	f := NewHetero(2, []float64{64})
	f.Machines[1].place(&Session{Variant: d2})
	// No interference table: every cost is 0 — a pure tie.
	pol := &BinPack{}
	if got := pol.Pick(f, re); got != 1 {
		t.Fatalf("cost tie must prefer the fuller machine, picked %d", got)
	}
}

func TestRoundRobinSkipsFullMachines(t *testing.T) {
	f := NewHetero(2, []float64{8})
	f.Overcommit = 1
	d2 := variantOf("D2")
	// More D2s than two 8-core machines can hold at overcommit 1: the
	// cursor must keep cycling over whatever still fits, and the excess
	// is rejected — never misplaced.
	reqs := []*Variant{d2, d2, d2, d2, d2, d2}
	rejected := admitAll(f, reqs, &RoundRobin{})
	total := len(f.Machines[0].Placed) + len(f.Machines[1].Placed)
	if total+rejected != len(reqs) {
		t.Fatalf("accounting broken: %d placed + %d rejected != %d", total, rejected, len(reqs))
	}
	if diff := len(f.Machines[0].Placed) - len(f.Machines[1].Placed); diff < -1 || diff > 1 {
		t.Fatalf("round-robin must keep counts within 1: %d vs %d",
			len(f.Machines[0].Placed), len(f.Machines[1].Placed))
	}
}

func TestInterferenceSymmetricAndNilSafe(t *testing.T) {
	it := NewInterference()
	it.Set("A", "B", 0.3)
	if it.Score("B", "A") != 0.3 {
		t.Fatal("interference must be symmetric")
	}
	if it.Score("A", "C") != 0 {
		t.Fatal("unknown pairs must score 0")
	}
	var nilTable *Interference
	if nilTable.Score("A", "B") != 0 || nilTable.Len() != 0 {
		t.Fatal("nil table must be usable and score 0")
	}
	if it.Len() != 1 {
		t.Fatalf("Len = %d, want 1", it.Len())
	}
}

func TestNewPolicyRegistry(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	if p, err := NewPolicy("", nil); err != nil || p.Name() != PolicyRoundRobin {
		t.Fatal("empty name must default to round-robin")
	}
	if _, err := NewPolicy("bogus", nil); err == nil {
		t.Fatal("unknown policy must error")
	}
}

func TestAdmitDeterministic(t *testing.T) {
	run := func() [][]string {
		f := NewHetero(4, []float64{8})
		reqs, _ := RequestStreamFrom(nil, MixHeavy, 20, 11)
		pol, _ := NewPolicy(PolicyBinPack, nil)
		admitAll(f, reqs, pol)
		out := make([][]string, len(f.Machines))
		for i, m := range f.Machines {
			out[i] = residentNames(m)
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("admission must be deterministic")
	}
}
