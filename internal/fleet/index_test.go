package fleet

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pictor/internal/app"
)

// linearPick is the round-robin scan the headroom index replaced: the
// first up machine that fits demand d at or after the cursor, wrapping
// once. It is the reference the index must reproduce exactly.
func linearPick(f *Fleet, cursor int, d float64) int {
	n := len(f.Machines)
	for i := 0; i < n; i++ {
		m := f.Machines[(cursor%n+i)%n]
		if m.State == MachineUp && m.Fits(d, f.Overcommit) {
			return m.Index
		}
	}
	return -1
}

// linearFeasible is the reference feasibility list: every up machine
// that fits demand d, in index order.
func linearFeasible(f *Fleet, d float64) []int {
	var out []int
	for _, m := range f.Machines {
		if m.State == MachineUp && m.Fits(d, f.Overcommit) {
			out = append(out, m.Index)
		}
	}
	return out
}

// linearLeast is the least-loaded pick the ranking trees replaced: over
// the up machines that fit demand d, in index order, the machine with
// the least load, ties toward the lower index. It is the reference
// leastcount and leastdemand must reproduce exactly.
func linearLeast(f *Fleet, d float64, load func(*Machine) float64) int {
	best := -1
	for _, m := range f.Machines {
		if m.State != MachineUp || !m.Fits(d, f.Overcommit) {
			continue
		}
		if best < 0 || load(m) < load(f.Machines[best]) {
			best = m.Index
		}
	}
	return best
}

// refKey is the name-pair key of a reference interference map.
func refKey(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// linearBinPack is the bin-packing pick the ranking trees replaced: over
// the up machines that fit demand d, in index order, each machine's
// cost the left-to-right sum, over its residents, of the request's
// score in ref, a name-pair map (a nil map scores every pair 0). It is
// the reference bin-packing must reproduce exactly.
func linearBinPack(f *Fleet, ref map[[2]string]float64, req *Variant, d float64) int {
	best, bestCost, bestDemand := -1, 0.0, 0.0
	for _, m := range f.Machines {
		if m.State != MachineUp || !m.Fits(d, f.Overcommit) {
			continue
		}
		cost := 0.0
		for _, placed := range m.Placed {
			cost += ref[refKey(req.Profile.Name, placed.Variant.Profile.Name)]
		}
		switch {
		case best < 0 || cost < bestCost-binPackEps:
		case cost <= bestCost+binPackEps && m.Demand > bestDemand+binPackEps:
		default:
			continue
		}
		best, bestCost, bestDemand = m.Index, cost, m.Demand
	}
	return best
}

// linearReference returns the linear scan policy p must match pick for
// pick. Round-robin's reads p's cursor, so it must run before p picks;
// ref is bin-packing's name-pair table.
func linearReference(p Placement, ref map[[2]string]float64) func(f *Fleet, req *Variant, d float64) int {
	switch p := p.(type) {
	case *RoundRobin:
		return func(f *Fleet, _ *Variant, d float64) int { return linearPick(f, p.next, d) }
	case LeastLoadedCount:
		return func(f *Fleet, _ *Variant, d float64) int {
			return linearLeast(f, d, func(m *Machine) float64 { return float64(len(m.Placed)) })
		}
	case LeastLoadedDemand:
		return func(f *Fleet, _ *Variant, d float64) int {
			return linearLeast(f, d, func(m *Machine) float64 { return m.Demand })
		}
	case *BinPack:
		return func(f *Fleet, req *Variant, d float64) int { return linearBinPack(f, ref, req, d) }
	}
	panic("no linear reference for policy " + p.Name())
}

// checkedPick checks every pick of a policy — arrivals and failover
// retries alike — against its linear reference.
type checkedPick struct {
	Placement
	t     *testing.T
	want  func(f *Fleet, req *Variant, d float64) int
	picks *int
}

func checked(t *testing.T, p Placement, ref map[[2]string]float64, picks *int) checkedPick {
	return checkedPick{Placement: p, t: t, want: linearReference(p, ref), picks: picks}
}

func (p checkedPick) Pick(f *Fleet, req *Variant) int {
	p.t.Helper()
	d := req.Demand
	want := p.want(f, req, d)
	got := p.Placement.Pick(f, req)
	if got != want {
		p.t.Fatalf("%s %s (demand %v): picked %d, linear scan %d", p.Name(), req.Profile.Name, d, got, want)
	}
	*p.picks++
	return got
}

// checkIndex verifies the index mirrors the fleet: every leaf holds its
// machine's current key, every inner node the max of its children, and
// every live ranking tree what a rebuild from scratch holds (see
// checkRankTree).
func checkIndex(t *testing.T, f *Fleet) {
	t.Helper()
	ix := f.index
	if ix == nil {
		return
	}
	for i, m := range f.Machines {
		if m.index != ix {
			t.Fatalf("machine %d is not attached to the fleet's index", i)
		}
		if got, want := ix.tree[ix.size+i], ix.key(m); got != want {
			t.Fatalf("machine %d leaf %v, want %v (demand %v)", i, got, want, m.Demand)
		}
	}
	for k := ix.size - 1; k >= 1; k-- {
		if ix.tree[k] != max(ix.tree[2*k], ix.tree[2*k+1]) {
			t.Fatalf("node %d holds %v, not the max of its children", k, ix.tree[k])
		}
	}
	for _, rt := range ix.trees {
		if rt.live() {
			checkRankTree(t, ix, rt)
		}
	}
}

// checkRankTree rebuilds ranking tree rt from the machines as they
// stand and compares it node by node. Each machine's val must be its
// objective if it Fits the tree's demand (+Inf if not), and each node's
// minimum the least val of the machines below it, exactly. Each
// near-tie bound must be at least the largest demand among the fitting
// machines below its node whose val is within rt.near of the minimum.
func checkRankTree(t *testing.T, ix *headroomIndex, rt *rankTree) {
	t.Helper()
	val := make([]float64, len(ix.machines))
	for i, m := range ix.machines {
		val[i] = math.Inf(1)
		if m.Fits(rt.demand, ix.overcommit) {
			var v float64
			switch rt.by.kind {
			case rankCount:
				v = float64(len(m.Placed))
			case rankDemand:
				v = m.Demand
			default:
				v = rt.by.table.cost(rt.row, m.Placed)
			}
			switch {
			case math.IsNaN(v):
				v = math.Inf(-1)
			case math.IsInf(v, 1):
				v = math.MaxFloat64
			}
			val[i] = v
		}
		if rt.val[i] != val[i] {
			t.Fatalf("tree %+v demand %v: machine %d val %v, want %v", rt.by, rt.demand, i, rt.val[i], val[i])
		}
	}
	for k := 1; k < 2*rt.size; k++ {
		first, last := k, k+1 // the leaves below node k: [first, last)
		for first < rt.size {
			first, last = 2*first, 2*last
		}
		lo, hi := (first-rt.size)*rankBlock, min((last-rt.size)*rankBlock, len(val))
		wantMin, wantTie := math.Inf(1), math.Inf(-1)
		for i := lo; i < hi; i++ {
			wantMin = min(wantMin, val[i])
		}
		for i := lo; i < hi; i++ {
			if val[i] < math.Inf(1) && val[i] <= wantMin+rt.near {
				wantTie = max(wantTie, ix.machines[i].Demand)
			}
		}
		if rt.min[k] != wantMin {
			t.Fatalf("tree %+v demand %v: node %d minimum %v, want %v", rt.by, rt.demand, k, rt.min[k], wantMin)
		}
		if rt.tie != nil && !(rt.tie[k] >= wantTie) {
			t.Fatalf("tree %+v demand %v: node %d near-tie bound %v below the near-tied demand %v", rt.by, rt.demand, k, rt.tie[k], wantTie)
		}
	}
}

// TestIndexedPlacementMatchesLinearScan drives random heterogeneous
// (8,4) fleets through every lifecycle path that changes demand or
// availability — arrivals, departures, direct State writes through
// Down→Cold→Up with crash evictions, failover retries, brown-out
// degrade/upgrade, migration and a mid-run Overcommit change — and
// checks offer by offer that every policy's index-backed pick is
// exactly its linear scan's. Bin-packing runs without a table here; see
// TestBinPackMatchesLinearScan for its scoring. Seeds 1–8 hold up to 40
// machines (5 ranking-tree blocks); seed 9 holds over 1,000, so the
// descent prunes at inner nodes, and runs a third of the arrival rate
// over 4 epochs, since every check is a linear scan.
func TestIndexedPlacementMatchesLinearScan(t *testing.T) {
	for _, policy := range PolicyNames() {
		for seed := int64(1); seed <= 9; seed++ {
			rng := rand.New(rand.NewSource(seed))
			machines, perMachine, epochs := 1+rng.Intn(40), 3.0, 24
			if seed == 9 {
				machines, perMachine, epochs = 1000+rng.Intn(200), 1, 4
			}
			f := NewHetero(machines, []float64{8, 4})
			base, _ := NewPolicy(policy, nil)
			picks := 0
			runIndexedChurn(t, f, checked(t, base, nil, &picks), rng, seed, perMachine, epochs, nil)
			if picks == 0 {
				t.Fatalf("%s seed %d: no pick was checked", policy, seed)
			}
		}
	}
}

// TestBinPackMatchesLinearScan checks bin-packing's pick — the ranking
// tree descent, its near-tie pruning and the catalog's table ids —
// offer by offer against the linear reference, through the same random
// churn as TestIndexedPlacementMatchesLinearScan, with tables that hold
// cost near-ties within binPackEps, exact ties, zero and negative
// scores, profiles they have never seen, and none at all. A third of
// the way in, Set changes the table between two offers; afterwards the
// same policy places on a second fleet of the same size. Seed 9's
// fleets hold over 1,000 machines, so the descent prunes at inner
// nodes.
func TestBinPackMatchesLinearScan(t *testing.T) {
	for _, table := range []string{"none", "near-ties", "sparse", "signed"} {
		for seed := int64(1); seed <= 9; seed++ {
			it, ref := testTable(table)
			bp := &BinPack{Interference: it}
			picks := 0
			pol := checked(t, bp, ref, &picks)
			rng := rand.New(rand.NewSource(seed))
			machines, epochs := 1+rng.Intn(40), 24
			if seed == 9 {
				machines, epochs = 1000+rng.Intn(200), 4
			}
			retune := func() {
				if it == nil {
					return
				}
				// Pairs the near-ties table already holds turn hostile, so
				// its width stays and memoized costs go stale without the
				// table's generation. The sparse table also learns
				// profiles it has never seen (STK, IM, 0AD), whose ids the
				// catalog resolved as unknown before the Set.
				pairs := [][2]string{{"STK", "D2"}, {"RE", "RE"}, {"IM", "D2"}}
				if table == "sparse" {
					pairs = append(pairs, [2]string{"0AD", "RE"})
				}
				for _, pr := range pairs {
					it.Set(pr[0], pr[1], 2)
					ref[refKey(pr[0], pr[1])] = 2
				}
			}
			// Half an arrival per machine and epoch keeps the fleets partly
			// empty, so most offers score many machines.
			runIndexedChurn(t, NewHetero(machines, []float64{8, 4}), pol, rng, seed, 0.5, epochs, retune)
			runIndexedChurn(t, NewHetero(machines, []float64{8, 4}), pol, rng, seed+100, 0.5, epochs, nil)
			if picks == 0 {
				t.Fatalf("table %s seed %d: no pick was checked", table, seed)
			}
		}
	}
}

// TestBinPackTreesFollowFleet: a fleet's ranking trees live in its own
// index, so a policy moving from one fleet to another of the same size,
// offering the same request, must not carry costs across. The fleets
// hold one machine more than a block, so each pick descends a tree;
// the machines past the residents stay empty.
func TestBinPackTreesFollowFleet(t *testing.T) {
	stk, re := variantOf("STK"), variantOf("RE")
	it := NewInterference()
	it.Set("STK", "STK", 0.5)
	it.Set("STK", "RE", 0)
	fleetOf := func(residents ...*Variant) *Fleet {
		f := NewHetero(rankBlock+1, []float64{64})
		for i, v := range residents {
			f.Machines[i].place(&Session{Variant: v})
		}
		return f
	}
	bp := &BinPack{Interference: it}
	if got := bp.Pick(fleetOf(stk, re), stk); got != 1 {
		t.Fatalf("STK offered beside STK and RE: picked machine %d, want 1 (RE)", got)
	}
	if got := bp.Pick(fleetOf(re, stk), stk); got != 0 {
		t.Fatalf("STK offered to a second fleet, residents swapped: picked machine %d, want 0 (RE)", got)
	}
}

// TestBinPackSharedTableRace runs two bin-packing churn trials at once
// over one freshly built table, the way concurrent fleet trials share
// the table PairInterferenceAmong caches, each with its own source and
// so its own catalog, and checks that each places exactly as it does
// alone. Run under -race, it also fails if reading the table writes to
// it.
func TestBinPackSharedTableRace(t *testing.T) {
	const epochs = 12
	source := func(seed int64) *ChurnSource {
		src, err := NewChurnSource(ArrivalConfig{
			Mix: MixHeavy, Rate: 60, MeanSessionEpochs: 2.5, Epochs: epochs, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	placements := func(it *Interference, src *ChurnSource) []int {
		f := NewHetero(24, []float64{8, 4})
		c := NewChurn(f, &BinPack{Interference: it})
		var out []int
		for e := 0; e < epochs; e++ {
			c.DepartDue(e)
			for _, s := range src.Next(e) {
				c.Offer(s, e)
				out = append(out, machineOf(f, s))
			}
		}
		return out
	}
	seeds := []int64{1, 2}
	want := make([][]int, len(seeds))
	for i, seed := range seeds {
		it, _ := testTable("near-ties")
		want[i] = placements(it, source(seed))
	}
	shared, _ := testTable("near-ties")
	got := make([][]int, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		src := source(seed)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = placements(shared, src)
		}(i)
	}
	wg.Wait()
	for i, seed := range seeds {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("seed %d: placements over the shared table differ from a private table's", seed)
		}
	}
}

// testTable builds a named interference table over the heavy mix's
// profiles and its name-pair reference copy: "none" is the nil table;
// "near-ties" scores most pairs with values whose sums differ by
// accumulation order and by less than binPackEps, leaves 0AD and ITP
// out and knows a CAD the mix never draws; "sparse" knows only D2 and
// RE and leaves most of their pairs unrecorded; "signed" repeats scores
// exactly and mixes zeros with negatives, so whole machines tie exactly
// and a cost can fall as residents arrive.
func testTable(name string) (*Interference, map[[2]string]float64) {
	if name == "none" {
		return nil, nil
	}
	it, ref := NewInterference(), map[[2]string]float64{}
	set := func(a, b string, score float64) {
		it.Set(a, b, score)
		ref[refKey(a, b)] = score
	}
	switch name {
	case "near-ties":
		set("STK", "STK", 0.1)
		set("STK", "RE", 0.2)
		set("STK", "D2", 0.3)
		set("RE", "RE", 0.1)
		set("RE", "D2", 0.25)
		set("RE", "IM", 0.25+4e-10)
		set("D2", "D2", 0.3)
		set("D2", "IM", 0.1+3e-9)
		set("IM", "IM", 0.2)
		set("IM", "STK", 0.1)
		set("CAD", "STK", 0.4)
		set("CAD", "CAD", 0.5)
	case "sparse":
		set("D2", "D2", 0.4)
		set("RE", "D2", 0.05)
	case "signed":
		set("STK", "STK", 0.2)
		set("STK", "RE", 0.2)
		set("STK", "D2", 0)
		set("RE", "RE", 0)
		set("RE", "D2", -0.1)
		set("D2", "D2", -0.1)
		set("D2", "IM", 0.2)
		set("IM", "IM", -0.25)
		set("IM", "0AD", 0)
		set("0AD", "0AD", -0.1)
		set("ITP", "RE", 0.2)
		set("ITP", "ITP", 0)
	}
	return it, ref
}

// runIndexedChurn drives fleet f through epochs of random churn under
// pol, with perMachine arrivals per machine and epoch, drawing every
// random choice from rng. At a third of the run it calls midway, when
// non-nil, half way through an epoch's offers.
func runIndexedChurn(t *testing.T, f *Fleet, pol Placement, rng *rand.Rand, seed int64, perMachine float64, epochs int, midway func()) {
	machines := len(f.Machines)
	c := NewChurn(f, pol)
	c.Retry = RetryPolicy{MaxAttempts: 2, BackoffEpochs: 1}
	src, err := NewChurnSource(ArrivalConfig{
		Mix: MixHeavy, Rate: perMachine * float64(machines), MeanSessionEpochs: 2.5, Epochs: epochs, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Pool = src
	rtt := make([]float64, machines)
	for e := 0; e < epochs; e++ {
		if e == epochs/2 {
			f.Overcommit = []float64{1, 1.25, 2}[rng.Intn(3)]
		}
		c.DepartDue(e)
		for mi, m := range f.Machines {
			switch {
			case m.State == MachineUp && rng.Intn(8) == 0:
				m.State = MachineDown
				c.EvictAll(mi, e)
			case m.State == MachineDown:
				m.State = MachineCold
			case m.State == MachineCold:
				m.State = MachineUp
			}
		}
		c.RetryDue(e)
		batch := src.Next(e)
		for i, s := range batch {
			if e == epochs/3 && i == len(batch)/2 && midway != nil {
				midway()
			}
			// The root's "nothing fits" skips the policy, so check it here.
			if d := s.Variant.Demand; !f.headroom().mayFit(d) && linearFeasible(f, d) != nil {
				t.Fatalf("%s seed %d epoch %d: the index rules out demand %v, linear scan fits %v", pol.Name(), seed, e, d, linearFeasible(f, d))
			}
			c.Offer(s, e)
		}
		for mi := range rtt {
			rtt[mi] = 60 + 120*rng.Float64()
		}
		for i := 0; i < machines/4+1; i++ {
			mi := rng.Intn(machines)
			switch rng.Intn(3) {
			case 0:
				c.DegradeToFit(mi)
			case 1:
				c.UpgradeOne(mi)
			default:
				c.MigrateOff(mi, rtt)
			}
		}
		checkIndex(t, f)
	}
}

// TestIndexExactAtCapacityEdges places copies of one profile on
// machines whose overcommitted capacity sits within a few ulps of a
// whole number of copies, so the last copy fits or misses by a rounding
// step: the index must never prune a machine the exact test accepts,
// so every policy's placement, rejections included, is its linear
// reference's.
func TestIndexExactAtCapacityEdges(t *testing.T) {
	cat := NewCatalog(app.PaperSuite())
	for _, oc := range []float64{1, 1.3, DefaultOvercommit} {
		for k := 0; k < cat.Kinds(); k++ {
			v := cat.Variant(k, 0)
			d := v.Demand
			var classes []float64
			for n := 1; n <= 4; n++ {
				sum := 0.0
				for i := 0; i < n; i++ {
					sum += d
				}
				cores := sum / oc
				for k := 0; k < 4; k++ {
					cores = math.Nextafter(cores, 0)
				}
				for k := -4; k <= 4; k++ {
					classes = append(classes, cores)
					cores = math.Nextafter(cores, math.Inf(1))
				}
			}
			for _, policy := range PolicyNames() {
				f := NewHetero(len(classes), classes)
				f.Overcommit = oc
				pol, _ := NewPolicy(policy, nil)
				linear := linearReference(pol, nil)
				for offers := 0; ; offers++ {
					want := linear(f, v, d)
					got := f.placeOne(&Session{Variant: v}, pol)
					if got != want {
						t.Fatalf("%s %s oc %v offer %d: picked %d, linear scan %d", policy, v.Profile.Name, oc, offers, got, want)
					}
					if got < 0 {
						break
					}
				}
				checkIndex(t, f)
			}
		}
	}
}
