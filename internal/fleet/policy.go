package fleet

import "fmt"

// Placement decides where an admitted request lands. Pick returns the
// fleet index of the machine chosen for req, a handle into its
// catalog whose predicted demand is d (req.Demand), or -1 when no up
// machine fits d; it does not place. Policies read
// their candidates from the fleet's headroom index and apply the exact
// admission test (up, and Fits under the fleet's Overcommit) before
// choosing one. Policies must be deterministic: placement feeds the
// deterministic experiment runner, so equal inputs must always produce
// equal choices.
type Placement interface {
	Name() string
	Pick(f *Fleet, req *Variant, d float64) int
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

func (p *RoundRobin) Pick(f *Fleet, _ *Variant, d float64) int {
	n := len(f.Machines)
	if n == 0 {
		return -1
	}
	ix := f.headroom()
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
// connections" balancer. Pick scans the headroom index's leaves in
// machine order and asks the exact admission test only of machines
// whose headroom might hold d.
type LeastLoadedCount struct{}

func (LeastLoadedCount) Name() string { return PolicyLeastCount }

func (LeastLoadedCount) Pick(f *Fleet, _ *Variant, d float64) int {
	best, fewest := -1, 0
	for i, headroom := range f.headroom().leaves() {
		if headroom < d {
			continue
		}
		m := f.Machines[i]
		if !m.admits(d, f.Overcommit) {
			continue
		}
		if best < 0 || len(m.Placed) < fewest {
			best, fewest = i, len(m.Placed)
		}
	}
	return best
}

// LeastLoadedDemand places on the admitting machine with the lowest
// predicted CPU demand (PredictedCPUDemand over its placed profiles,
// ties toward the lower index), scanning like LeastLoadedCount. Unlike
// LeastLoadedCount it knows a Dota2 costs more than a Red Eclipse, so
// heterogeneous mixes spread by weight rather than by headcount.
type LeastLoadedDemand struct{}

func (LeastLoadedDemand) Name() string { return PolicyLeastDemand }

func (LeastLoadedDemand) Pick(f *Fleet, _ *Variant, d float64) int {
	best, lightest := -1, 0.0
	for i, headroom := range f.headroom().leaves() {
		if headroom < d {
			continue
		}
		m := f.Machines[i]
		if !m.admits(d, f.Overcommit) {
			continue
		}
		if best < 0 || m.Demand < lightest {
			best, lightest = i, m.Demand
		}
	}
	return best
}

// BinPack is profile-affinity bin-packing: among the machines where the
// request causes the least predicted interference with what is already
// placed (scored by the pair-interference table the co-location
// experiment produces), it prefers the fullest — packing compatible
// workloads tightly so the fleet keeps whole machines free (and near
// idle power) for as long as possible.
//
// Pick makes one pass over the headroom index's leaves in machine
// order, skipping machines whose headroom is below the request's
// demand and applying the exact admission test to the rest. Each
// admitting machine's interference cost comes from a memo the policy
// keeps per (machine, profile). A memo entry is recomputed only after
// that machine's placements change, the table changes (Set), or the
// policy moves to another fleet, so an offer costs one lookup per
// admitting machine instead of a sum over its residents. Table ids
// come from the variants' catalog, which resolves each kind's name once
// per table generation, so an offer hashes no name.
type BinPack struct {
	// Interference scores co-location penalties; nil falls back to pure
	// demand-based packing (every pair scores zero).
	Interference *Interference
	memo         costMemo
}

func (*BinPack) Name() string { return PolicyBinPack }

// binPackEps tolerates float accumulation error in BinPack's scores:
// interference cost and demand are both sums over a machine's placed
// instances, so two machines holding the same multiset of profiles in
// different placement orders (which churn migration produces routinely)
// can disagree in the last few ulps. Exact == comparison would make the
// documented "then lower index" tie-break accumulation-order fragile;
// anything within the tolerance counts as the tie it morally is.
const binPackEps = 1e-9

// binPackChoice is the best candidate so far under BinPack's order:
// lexicographic (cost, -demand, index) with tolerance — minimal
// interference first; among equal costs, the fullest machine; remaining
// ties keep the first (lowest-index) winner.
type binPackChoice struct {
	best         int // -1 until a candidate wins
	cost, demand float64
}

// consider offers candidate i, with interference cost and demand; the
// candidates must come in index order.
func (c *binPackChoice) consider(i int, cost, demand float64) {
	switch {
	case c.best < 0 || cost < c.cost-binPackEps:
		// Strictly lower interference.
	case cost <= c.cost+binPackEps && demand > c.demand+binPackEps:
		// Tied interference, strictly fuller machine.
	default:
		return
	}
	c.best, c.cost, c.demand = i, cost, demand
}

func (p *BinPack) Pick(f *Fleet, req *Variant, d float64) int {
	leaves := f.headroom().leaves()
	it := p.Interference
	r, row := it.row(req)
	var memo []costEntry // the request's cost on each machine; nil when all are 0
	if row != nil {
		memo = p.memo.of(f, it, r)
	}
	choice := binPackChoice{best: -1}
	for i, headroom := range leaves {
		if headroom < d {
			continue
		}
		m := f.Machines[i]
		if !m.admits(d, f.Overcommit) {
			continue
		}
		cost := 0.0
		if memo != nil {
			e := &memo[i]
			if e.gen != m.gen+1 {
				e.cost, e.gen = it.cost(row, m.Placed), m.gen+1
			}
			cost = e.cost
		}
		choice.consider(i, cost, m.Demand)
	}
	return choice.best
}

// costMemo holds BinPack's interference cost for each (table id,
// machine) pair of one fleet: 16 bytes a pair, ~290 KB for 3,000
// machines under a six-profile table.
type costMemo struct {
	fleet    *Fleet        // fleet the entries belong to
	table    *Interference // table they were computed from
	tableGen uint64        // the table's generation then
	entries  []costEntry   // table id r, machine i at r*len(fleet.Machines) + i
}

// costEntry is one memoized cost, valid while its machine's generation
// is gen-1 (0 marks an entry never computed).
type costEntry struct {
	cost float64
	gen  uint64
}

// of returns table id r's entries for f's machines, by fleet index. It
// first empties the memo unless the memo was built for f and it as they
// stand: the same fleet and machine count, the same table, and no Set
// since (Set is also the only way the table's width changes).
func (c *costMemo) of(f *Fleet, it *Interference, r int) []costEntry {
	n := len(f.Machines)
	if c.fleet != f || c.table != it || c.tableGen != it.gen || len(c.entries) != n*len(it.ids) {
		c.fleet, c.table, c.tableGen = f, it, it.gen
		c.entries = make([]costEntry, n*len(it.ids))
	}
	return c.entries[r*n : (r+1)*n]
}
