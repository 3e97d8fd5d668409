package fleet

import "fmt"

// Placement decides where an admitted request lands. Pick returns the
// fleet index of the machine chosen for req, a handle into its
// catalog, or -1 when no up machine fits req.Demand; it does not
// place. Policies find their candidates through the fleet's headroom
// index — round-robin by walking it from its cursor, the ranking
// policies by descending a ranking tree it carries (or, in a fleet of
// at most one tree block, by scanning every machine; see
// headroomIndex.rank) — and apply the
// exact admission test (up, and Fits under the fleet's Overcommit)
// before choosing one. Policies must be deterministic: placement feeds
// the deterministic experiment runner, so equal inputs must always
// produce equal choices.
type Placement interface {
	Name() string
	Pick(f *Fleet, req *Variant) int
}

// Policy names, as accepted by NewPolicy and the CLI's -policy flag.
const (
	PolicyRoundRobin  = "roundrobin"
	PolicyLeastCount  = "leastcount"
	PolicyLeastDemand = "leastdemand"
	PolicyBinPack     = "binpack"
)

// PolicyNames lists every placement policy in comparison order.
func PolicyNames() []string {
	return []string{PolicyRoundRobin, PolicyLeastCount, PolicyLeastDemand, PolicyBinPack}
}

// NewPolicy builds a policy by name. The bin-packing policy needs the
// pair-interference table the co-location experiment produces; the
// other policies ignore it (nil is fine for them).
func NewPolicy(name string, it *Interference) (Placement, error) {
	switch name {
	case PolicyRoundRobin, "":
		return &RoundRobin{}, nil
	case PolicyLeastCount:
		return LeastLoadedCount{}, nil
	case PolicyLeastDemand:
		return LeastLoadedDemand{}, nil
	case PolicyBinPack:
		return &BinPack{Interference: it}, nil
	}
	return nil, fmt.Errorf("fleet: unknown policy %q (have %v)", name, PolicyNames())
}

// RoundRobin cycles machines in index order, skipping full ones. It
// balances instance counts without looking at the workload at all —
// the baseline every load balancer starts from.
//
// The cursor advances over machine indices, so a temporarily-full
// machine does not shift everyone else's turn: Pick takes the first
// fitting machine at or after the cursor, wrapping once. The headroom
// index yields the candidates in that order, skipping whole runs of
// full machines (O(log n) per arrival on a 10k-machine sweep), and each
// candidate passes the exact admission test before it is chosen. The
// cursor only advances on a successful pick.
type RoundRobin struct {
	next int
}

func (*RoundRobin) Name() string { return PolicyRoundRobin }

func (p *RoundRobin) Pick(f *Fleet, req *Variant) int {
	n := len(f.Machines)
	if n == 0 {
		return -1
	}
	ix, d := f.headroom(), req.Demand
	start := p.next % n
	for i := ix.next(start, d); i >= 0; i = ix.next(i+1, d) {
		if p.take(f, i, d) {
			return i
		}
	}
	for i := ix.next(0, d); i >= 0 && i < start; i = ix.next(i+1, d) {
		if p.take(f, i, d) {
			return i
		}
	}
	return -1
}

// take applies the exact admission test to a candidate from the index
// and, when it passes, moves the cursor past it.
func (p *RoundRobin) take(f *Fleet, i int, d float64) bool {
	if !f.Machines[i].admits(d, f.Overcommit) {
		return false
	}
	p.next = i + 1
	return true
}

// LeastLoadedCount places on the machine hosting the fewest instances
// among those that admit the request (ties break toward the lower
// index). Blind to what those instances are — the classic "least
// connections" balancer. Pick descends the headroom index's ranking
// tree of resident counts for the request's demand, which it builds on
// its first pick at that demand.
type LeastLoadedCount struct{}

func (LeastLoadedCount) Name() string { return PolicyLeastCount }

func (LeastLoadedCount) Pick(f *Fleet, req *Variant) int {
	ix := f.headroom()
	return ix.rank(rankBy{kind: rankCount}, nil, req.Demand)
}

// LeastLoadedDemand places on the admitting machine with the lowest
// predicted CPU demand (PredictedCPUDemand over its placed profiles,
// ties toward the lower index), descending a ranking tree of demands
// the way LeastLoadedCount descends one of counts. Unlike
// LeastLoadedCount it knows a Dota2 costs more than a Red Eclipse, so
// heterogeneous mixes spread by weight rather than by headcount.
type LeastLoadedDemand struct{}

func (LeastLoadedDemand) Name() string { return PolicyLeastDemand }

func (LeastLoadedDemand) Pick(f *Fleet, req *Variant) int {
	ix := f.headroom()
	return ix.rank(rankBy{kind: rankDemand}, nil, req.Demand)
}

// BinPack is profile-affinity bin-packing: among the machines where the
// request causes the least predicted interference with what is already
// placed (scored by the pair-interference table the co-location
// experiment produces), it prefers the fullest — packing compatible
// workloads tightly so the fleet keeps whole machines free (and near
// idle power) for as long as possible.
//
// Pick descends the headroom index's ranking tree of the request's
// interference cost — one tree per table row and demand, built on the
// first pick that needs it — whose nodes also bound the demand of
// their near-tied machines, so whole subtrees that can neither cost
// less nor be fuller than the best so far are skipped. Table ids come
// from the variants' catalog, which resolves each kind's name once per
// table generation, so an offer hashes no name; a Set on the table
// retires the trees built on it (see rankTree.live).
type BinPack struct {
	// Interference scores co-location penalties; nil falls back to pure
	// demand-based packing (every pair scores zero).
	Interference *Interference
}

func (*BinPack) Name() string { return PolicyBinPack }

// binPackEps tolerates float accumulation error in BinPack's scores:
// interference cost and demand are both sums over a machine's placed
// instances, so two machines holding the same multiset of profiles in
// different placement orders (which churn migration produces routinely)
// can disagree in the last few ulps. Exact == comparison would make the
// documented "then lower index" tie-break accumulation-order fragile;
// anything within the tolerance counts as the tie it morally is. Its
// order is lexicographic (cost, -demand, index) with this tolerance
// (see rankChoice).
const binPackEps = 1e-9

func (p *BinPack) Pick(f *Fleet, req *Variant) int {
	it := p.Interference
	by := rankBy{kind: rankCost, table: it}
	var row []float64
	by.id, row = it.row(req)
	if it != nil {
		by.gen = it.gen
	}
	ix := f.headroom()
	return ix.rank(by, row, req.Demand)
}
