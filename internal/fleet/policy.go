package fleet

import (
	"fmt"

	"pictor/internal/app"
)

// Placement decides where an admitted request lands. Pick receives the
// feasible machines (those with remaining overcommitted capacity, in
// index order, never empty) and returns the index *into that slice* of
// the chosen machine, or -1 to reject the request anyway. Policies must
// be deterministic: placement feeds the deterministic experiment
// runner, so equal inputs must always produce equal choices.
type Placement interface {
	Name() string
	Pick(feasible []*Machine, req app.Profile) int
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

// RoundRobin cycles machines in index order, skipping full ones (the
// feasibility filter already removed those). It balances instance
// counts without looking at the workload at all — the baseline every
// load balancer starts from.
type RoundRobin struct {
	next int
}

func (*RoundRobin) Name() string { return PolicyRoundRobin }

func (p *RoundRobin) Pick(feasible []*Machine, _ app.Profile) int {
	// The cursor advances over machine indices, not the feasible slice,
	// so a temporarily-full machine does not shift everyone else's turn.
	best, bestKey := 0, -1
	for i, m := range feasible {
		// Key orders machines by distance from the cursor, wrapping.
		key := m.Index - p.next
		if key < 0 {
			key += 1 << 30
		}
		if bestKey == -1 || key < bestKey {
			best, bestKey = i, key
		}
	}
	p.next = feasible[best].Index + 1
	return best
}

// cursorPicker is the streaming fast path for policies whose choice is
// "the first fitting machine in my own probe order": the policy finds
// that machine itself (through the fleet's headroom index), instead of
// materializing the whole feasibility list only to discard all but one
// entry — the difference between O(log n) and O(fleet) per arrival on
// a 10k-machine sweep. An implementation must select exactly the
// machine its Pick would select from the full feasible list, or
// schedule goldens diverge by policy dispatch path.
type cursorPicker interface {
	// pickDirect returns the chosen machine's fleet index (without
	// placing on it), or -1 when no up machine fits demand d.
	pickDirect(f *Fleet, d float64) int
}

// pickDirect: Pick minimizes wrapping cursor distance over the feasible
// list, which is exactly "the first fitting index at or after the
// cursor, wrapping once". The headroom index yields the candidates in
// that order, skipping whole runs of full machines, and each candidate
// passes the exact feasibility test before it is chosen. The cursor
// only advances on a successful placement, matching the slow path (an
// empty feasibility list never reaches Pick).
func (p *RoundRobin) pickDirect(f *Fleet, d float64) int {
	n := len(f.Machines)
	if n == 0 {
		return -1
	}
	ix := f.headroom()
	if !ix.mayFit(d) {
		return -1
	}
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

// take applies the exact feasibility test to a candidate from the
// index and, when it passes, moves the cursor past it.
func (p *RoundRobin) take(f *Fleet, i int, d float64) bool {
	m := f.Machines[i]
	if m.State != MachineUp || !m.Fits(d, f.Overcommit) {
		return false
	}
	p.next = i + 1
	return true
}

// LeastLoadedCount places on the feasible machine hosting the fewest
// instances (ties break toward the lower index). Blind to what those
// instances are — the classic "least connections" balancer.
type LeastLoadedCount struct{}

func (LeastLoadedCount) Name() string { return PolicyLeastCount }

func (LeastLoadedCount) Pick(feasible []*Machine, _ app.Profile) int {
	best := 0
	for i, m := range feasible {
		if len(m.Placed) < len(feasible[best].Placed) {
			best = i
		}
	}
	return best
}

// LeastLoadedDemand places on the feasible machine with the lowest
// predicted CPU demand (PredictedCPUDemand over its placed profiles,
// ties toward the lower index). Unlike LeastLoadedCount it knows a
// Dota2 costs more than a Red Eclipse, so heterogeneous mixes spread by
// weight rather than by headcount.
type LeastLoadedDemand struct{}

func (LeastLoadedDemand) Name() string { return PolicyLeastDemand }

func (LeastLoadedDemand) Pick(feasible []*Machine, _ app.Profile) int {
	best := 0
	for i, m := range feasible {
		if m.Demand < feasible[best].Demand {
			best = i
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
// anything within the tolerance counts as the tie it morally is.
const binPackEps = 1e-9

func (p *BinPack) Pick(feasible []*Machine, req app.Profile) int {
	best, bestCost, bestDemand := -1, 0.0, 0.0
	for i, m := range feasible {
		cost := 0.0
		for _, placed := range m.Placed {
			cost += p.Interference.Score(req.Name, placed.Name)
		}
		// Lexicographic (cost, -demand, index) with tolerance: minimal
		// interference first; among equal costs, pack the fullest
		// machine; remaining ties keep the first (lowest-index) winner.
		switch {
		case best < 0 || cost < bestCost-binPackEps:
			// Strictly lower interference.
		case cost <= bestCost+binPackEps && m.Demand > bestDemand+binPackEps:
			// Tied interference, strictly fuller machine.
		default:
			continue
		}
		best, bestCost, bestDemand = i, cost, m.Demand
	}
	return best
}
