package fleet

import (
	"math"
	"math/rand"
	"slices"
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

func indices(ms []*Machine) []int {
	var out []int
	for _, m := range ms {
		out = append(out, m.Index)
	}
	return out
}

// checkedRoundRobin checks every index-backed pick — arrivals and
// failover retries alike — against the linear scan from the same
// cursor.
type checkedRoundRobin struct {
	*RoundRobin
	t     *testing.T
	picks *int
}

func (p checkedRoundRobin) pickDirect(f *Fleet, d float64) int {
	p.t.Helper()
	want := linearPick(f, p.next, d)
	got := p.RoundRobin.pickDirect(f, d)
	if got != want {
		p.t.Fatalf("round-robin pick from cursor %d for demand %v: index chose %d, linear scan %d", p.next, d, got, want)
	}
	*p.picks++
	return got
}

// checkedPick checks every non-empty feasibility list a full-scan
// policy receives against the linear reference.
type checkedPick struct {
	Placement
	t     *testing.T
	f     *Fleet
	picks *int
}

func (p checkedPick) Pick(feasible []*Machine, req app.Profile) int {
	p.t.Helper()
	if want := linearFeasible(p.f, PredictedCPUDemand(&req)); !slices.Equal(indices(feasible), want) {
		p.t.Fatalf("%s: feasible %v, linear scan %v", p.Name(), indices(feasible), want)
	}
	*p.picks++
	return p.Placement.Pick(feasible, req)
}

// checkIndex verifies the index mirrors the fleet: every leaf holds its
// machine's current key and every inner node the max of its children.
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
}

// TestIndexedPlacementMatchesLinearScan drives random heterogeneous
// (8,4) fleets through every lifecycle path that changes demand or
// availability — arrivals, departures, direct State writes through
// Down→Cold→Up with crash evictions, failover retries, brown-out
// degrade/upgrade, migration and a mid-run Overcommit change — and
// checks offer by offer that the index-backed round-robin pick and
// feasibility list are exactly the linear scan's.
func TestIndexedPlacementMatchesLinearScan(t *testing.T) {
	for _, policy := range PolicyNames() {
		for seed := int64(1); seed <= 8; seed++ {
			runIndexedChurn(t, policy, seed)
		}
	}
}

func runIndexedChurn(t *testing.T, policy string, seed int64) {
	const epochs = 24
	rng := rand.New(rand.NewSource(seed))
	machines := 1 + rng.Intn(40)
	f := NewHetero(machines, []float64{8, 4})
	base, _ := NewPolicy(policy, nil)
	picks := 0
	var pol Placement = checkedPick{Placement: base, t: t, f: f, picks: &picks}
	if rr, ok := base.(*RoundRobin); ok {
		pol = checkedRoundRobin{RoundRobin: rr, t: t, picks: &picks}
	}
	c := NewChurn(f, pol)
	c.Retry = RetryPolicy{MaxAttempts: 2, BackoffEpochs: 1}
	src, err := NewChurnSource(ArrivalConfig{
		Mix: MixHeavy, Rate: 3 * float64(machines), MeanSessionEpochs: 2.5, Epochs: epochs, Seed: seed,
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
		for _, s := range src.Next(e) {
			d := PredictedCPUDemand(&s.Profile)
			if want := linearFeasible(f, d); !slices.Equal(indices(f.feasible(d)), want) {
				t.Fatalf("%s seed %d epoch %d: feasible %v, linear scan %v", policy, seed, e, indices(f.feasible(d)), want)
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
	if picks == 0 {
		t.Fatalf("%s seed %d: no pick was checked", policy, seed)
	}
}

// TestIndexExactAtCapacityEdges places copies of one profile on
// machines whose overcommitted capacity sits within a few ulps of a
// whole number of copies, so the last copy fits or misses by a rounding
// step: the index must never prune a machine the exact test accepts.
func TestIndexExactAtCapacityEdges(t *testing.T) {
	for _, oc := range []float64{1, 1.3, DefaultOvercommit} {
		for _, p := range app.PaperSuite() {
			d := PredictedCPUDemand(&p)
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
			for _, policy := range []string{PolicyRoundRobin, PolicyLeastCount} {
				f := NewHetero(len(classes), classes)
				f.Overcommit = oc
				rr := &RoundRobin{}
				pol, _ := NewPolicy(policy, nil)
				if policy == PolicyRoundRobin {
					pol = rr
				}
				for offers := 0; ; offers++ {
					want := linearFeasible(f, d)
					if got := indices(f.feasible(d)); !slices.Equal(got, want) {
						t.Fatalf("%s oc %v offer %d: feasible %v, linear scan %v", p.Name, oc, offers, got, want)
					}
					wantPick := linearPick(f, rr.next, d)
					got := f.placeOne(&p, pol)
					if policy == PolicyRoundRobin && got != wantPick {
						t.Fatalf("%s oc %v offer %d: picked %d, linear scan %d", p.Name, oc, offers, got, wantPick)
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
