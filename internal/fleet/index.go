package fleet

import (
	"math"
	"slices"
)

// headroomIndex is a max segment tree over each machine's free
// overcommitted headroom, Cores×Overcommit − Demand. It answers "the
// first machine at or after position i that might hold demand d" in
// O(log n), and "no machine can hold d" in O(1) at the root, where the
// linear scan it replaces probed every machine of the fleet.
//
// The tree is a conservative filter, never the decision: each leaf is
// padded by headroomSlack of its magnitudes, so a machine passing the
// exact Machine.Fits test is never pruned, and every candidate the tree
// yields is re-checked with the exact test (and MachineUp) before it is
// chosen. A false positive — a rounding-level near miss, or a Down or
// Cold machine, since State is deliberately not in the tree — just
// resumes the search one position later. Placements are therefore the
// ones the linear scan makes, bit for bit.
//
// The index also carries the fleet's ranking trees (see rankTree), one
// per objective and offered demand, which the ranking policies build on
// their first pick (a fleet of at most rankBlock machines has none; see
// rank). Leaves and trees update from Machine.updateDemand,
// the only writer of Demand. A machine's Cores is read only when its
// placements change or a tree is built (see Machine.Cores); a Fleet
// whose Overcommit or machine count changes gets a fresh index, with no
// trees, on its next query.
type headroomIndex struct {
	overcommit float64
	machines   []*Machine // the fleet's machines, by fleet index
	size       int        // leaf count, a power of two >= len(machines)
	// tree[1] is the root; node k's children are 2k and 2k+1, and the
	// leaf of machine i is tree[size+i]. Padding leaves hold -Inf.
	tree []float64
	// trees are the ranking trees built so far, each kept current by
	// update.
	trees []*rankTree
}

// headroomSlack is how far, relative to a machine's capacity and
// demand, a leaf overstates its headroom. Fits compares Demand+d with
// Cores×Overcommit, the tree compares d with their difference; the two
// roundings disagree by a few ulps at most, and 1e-9 covers that with
// a wide margin while staying far below any real demand.
const headroomSlack = 1e-9

// newHeadroomIndex builds the index over the fleet's machines and
// attaches it to them, so their placements keep it current.
func newHeadroomIndex(machines []*Machine, overcommit float64) *headroomIndex {
	size := 1
	for size < len(machines) {
		size *= 2
	}
	ix := &headroomIndex{overcommit: overcommit, machines: machines, size: size, tree: make([]float64, 2*size)}
	for i := range ix.tree[size:] {
		ix.tree[size+i] = math.Inf(-1)
	}
	for i, m := range machines {
		m.index = ix
		ix.tree[size+i] = ix.key(m)
	}
	for k := size - 1; k >= 1; k-- {
		ix.tree[k] = max(ix.tree[2*k], ix.tree[2*k+1])
	}
	return ix
}

// key is machine m's padded headroom.
func (ix *headroomIndex) key(m *Machine) float64 {
	capacity := m.Cores * ix.overcommit
	return capacity - m.Demand + headroomSlack*(math.Abs(capacity)+math.Abs(m.Demand))
}

// update refreshes machine m in every ranking tree, then its leaf and
// its ancestors, stopping as soon as an ancestor's maximum is
// unchanged.
func (ix *headroomIndex) update(m *Machine) {
	for _, t := range ix.trees {
		t.update(ix, m)
	}
	k := ix.size + m.Index
	ix.tree[k] = ix.key(m)
	for k > 1 {
		k >>= 1
		v := max(ix.tree[2*k], ix.tree[2*k+1])
		if ix.tree[k] == v {
			return
		}
		ix.tree[k] = v
	}
}

// mayFit reports whether any machine might hold demand d; false is
// exact. (Written as !(root < d) so that a NaN, which max propagates,
// reads as "might fit", as it does throughout the tree.)
func (ix *headroomIndex) mayFit(d float64) bool { return !(ix.tree[1] < d) }

// next returns the first position >= from whose leaf admits demand d,
// or -1 when none does. It climbs from the leaf until a right-hand
// subtree admits d, then descends into that subtree's leftmost
// admitting leaf. It moves right only past subtrees whose maximum is
// below d, so it never skips an admitting leaf.
func (ix *headroomIndex) next(from int, d float64) int {
	if from >= len(ix.machines) {
		return -1
	}
	k := ix.size + from
	for ix.tree[k] < d {
		for k&1 == 1 { // a right child: its right-hand neighbours start further up
			k >>= 1
		}
		if k == 0 {
			return -1
		}
		k++
	}
	for k < ix.size {
		k *= 2
		if ix.tree[k] < d {
			k++
		}
	}
	return k - ix.size
}

// rank returns the fleet index of the best machine admitting demand d
// under ranking by, or -1 when none admits it; row is the request's
// interference row when by ranks by cost. It picks from the index's
// tree for (by, d), building and attaching it on first use; building a
// tree drops every dead one (see rankTree.live) from the index.
//
// A fleet of at most one block keeps no trees: a one-leaf tree's pick
// scans every machine anyway, so rank scans them directly, and the
// fleet's placement changes have no tree to update.
func (ix *headroomIndex) rank(by rankBy, row []float64, d float64) int {
	if len(ix.machines) <= rankBlock {
		c := rankChoice{best: -1}
		for i, m := range ix.machines {
			if m.admits(d, ix.overcommit) {
				c.consider(i, by.objective(row, m), by.fuller(m), by.eps())
			}
		}
		return c.best
	}
	for _, t := range ix.trees {
		// Compared as bits so that even a NaN demand finds its tree.
		if t.by == by && math.Float64bits(t.demand) == math.Float64bits(d) {
			return t.pick(ix)
		}
	}
	ix.trees = slices.DeleteFunc(ix.trees, func(t *rankTree) bool { return !t.live() })
	t := newRankTree(ix, by, row, d)
	ix.trees = append(ix.trees, t)
	return t.pick(ix)
}

// rankBlock is how many machines, adjacent by fleet index, share one
// leaf of a ranking tree: a pick tests a surviving leaf's machines
// exactly, one by one, and the tree needs an eighth of the nodes
// per-machine leaves would.
const rankBlock = 8

// nearTie is how far above a node's minimum a bin-packing cost still
// counts toward the node's near-tie demand bound. Pruning needs 2 ×
// binPackEps (see rankTree.skip); the rest absorbs the rounding of
// best ± binPackEps for costs below ~10⁶.
const nearTie = 4 * binPackEps

// rankKind is what a ranking tree orders machines by.
type rankKind uint8

const (
	rankCount  rankKind = iota // resident count (LeastLoadedCount)
	rankDemand                 // predicted demand (LeastLoadedDemand)
	rankCost                   // a request's interference cost (BinPack)
)

// rankBy identifies a ranking tree's objective. For rankCost it also
// names the table, the table's generation when the tree was built, and
// the request's id in it (-1, the all-zero row, for a nil table or a
// kind the table has never seen).
type rankBy struct {
	kind  rankKind
	table *Interference
	gen   uint64
	id    int
}

// objective is machine m's value under the ranking; row is the
// request's interference row for rankCost.
func (by rankBy) objective(row []float64, m *Machine) float64 {
	switch by.kind {
	case rankCount:
		return float64(len(m.Placed))
	case rankDemand:
		return m.Demand
	}
	return by.table.cost(row, m.Placed)
}

// fuller is machine m's second key: bin-packing prefers the fuller of
// two cost-tied machines; the least-loaded policies rank by their
// objective alone, so every machine's is 0.
func (by rankBy) fuller(m *Machine) float64 {
	if by.kind != rankCost {
		return 0
	}
	return m.Demand
}

// eps is the ranking's comparison tolerance: binPackEps for rankCost,
// else 0.
func (by rankBy) eps() float64 {
	if by.kind == rankCost {
		return binPackEps
	}
	return 0
}

// rankTree is a fit-masked ranking tree: a min tree over one objective
// of the fleet's machines, counting only machines that Fit one offered
// demand. It keeps each machine's masked objective, and its leaves
// aggregate blocks of rankBlock machines. A policy picks by descending
// it in machine order against the best candidate so far (see pick),
// skipping every subtree that holds no fitting machine or cannot beat
// that best; at each surviving block it applies the exact admission
// test and the policy's own comparison to every machine, so it picks
// exactly what a linear scan over all machines picks.
//
// Masking is what makes the descent short: a full machine never holds
// a subtree's minimum, so a subtree of machines too full for the
// request reads +Inf rather than the low cost a full machine of
// compatible residents would give it.
type rankTree struct {
	by     rankBy
	row    []float64 // rankCost: the request's scores by table id; nil scores 0
	demand float64   // the offered demand the mask tests
	near   float64   // how far above a minimum tie reaches: nearTie for rankCost, else 0
	size   int       // leaf count, a power of two >= the block count
	// val[i] is machine i's masked objective (see masked) as of its last
	// update: +Inf when it did not fit demand then.
	val []float64
	// min[k] is the least val below node k. For rankCost, tie[k] bounds
	// from above the demand of the fitting machines below k whose val is
	// within near of min[k] (-Inf when none); the other kinds break
	// ties by index alone and have no tie. Node k's children are 2k and
	// 2k+1, and block b (machines [8b, 8b+8)) is leaf size+b; padding
	// leaves hold +Inf and -Inf.
	min, tie []float64
}

// newRankTree builds the tree ranking ix's machines by `by` among those
// that fit demand d.
func newRankTree(ix *headroomIndex, by rankBy, row []float64, d float64) *rankTree {
	n := len(ix.machines)
	blocks := (n + rankBlock - 1) / rankBlock
	size := 1
	for size < blocks {
		size *= 2
	}
	t := &rankTree{by: by, row: row, demand: d, size: size, val: make([]float64, n), min: make([]float64, 2*size)}
	if by.kind == rankCost {
		t.near, t.tie = nearTie, make([]float64, 2*size)
	}
	for i, m := range ix.machines {
		t.val[i] = t.masked(ix, m)
	}
	for b := 0; b < size; b++ {
		lo, tie := math.Inf(1), math.Inf(-1)
		if b < blocks {
			lo, tie = t.block(ix, b)
		}
		t.set(size+b, lo, tie)
	}
	for k := size - 1; k >= 1; k-- {
		lo, tie := t.merged(k)
		t.set(k, lo, tie)
	}
	return t
}

// live reports whether the tree still describes its table. An
// Interference.Set kills every bin-packing tree built on the table
// before it: a dead tree is never updated or picked from again (no
// pick asks for its generation), and the next tree built drops it.
func (t *rankTree) live() bool { return t.by.table == nil || t.by.gen == t.by.table.gen }

// masked is machine m's val: +Inf when it does not fit the tree's
// demand, else its objective, except that an objective of +Inf is
// stored as MaxFloat64 and a NaN as -Inf. So +Inf means only "does not
// fit", and no NaN reaches the tree's comparisons: like the NaN it
// stands for, -Inf never lets the descent skip its node, and pick asks
// the objective itself again for either.
func (t *rankTree) masked(ix *headroomIndex, m *Machine) float64 {
	if !m.Fits(t.demand, ix.overcommit) {
		return math.Inf(1)
	}
	switch v := t.by.objective(t.row, m); {
	case math.IsNaN(v):
		return math.Inf(-1)
	case math.IsInf(v, 1):
		return math.MaxFloat64
	default:
		return v
	}
}

// block computes block b's minimum and near-tie bound from its
// machines' vals.
func (t *rankTree) block(ix *headroomIndex, b int) (lo, tie float64) {
	first := b * rankBlock
	vals := t.val[first:min(first+rankBlock, len(t.val))]
	lo, tie = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
	}
	if t.tie != nil && lo < math.Inf(1) {
		for j, v := range vals {
			if d := ix.machines[first+j].Demand; v <= lo+t.near && d > tie {
				tie = d
			}
		}
	}
	return lo, tie
}

// merged computes inner node k's minimum and near-tie bound from its
// children's. A child whose minimum lies within near of k's bounds
// every machine of its own within near of k's minimum; a child further
// off has none.
func (t *rankTree) merged(k int) (lo, tie float64) {
	l, r := 2*k, 2*k+1
	lo, tie = t.min[l], math.Inf(-1)
	if t.min[r] < lo {
		lo = t.min[r]
	}
	if t.tie != nil {
		if t.min[l] <= lo+t.near {
			tie = t.tie[l]
		}
		if t.min[r] <= lo+t.near && t.tie[r] > tie {
			tie = t.tie[r]
		}
	}
	return lo, tie
}

// set stores node k's minimum and near-tie bound, reporting whether
// either changed.
func (t *rankTree) set(k int, lo, tie float64) bool {
	changed := t.min[k] != lo
	t.min[k] = lo
	if t.tie != nil {
		changed = changed || t.tie[k] != tie
		t.tie[k] = tie
	}
	return changed
}

// update recomputes machine m's val, then its block and the block's
// ancestors, stopping as soon as a node is unchanged. A machine whose
// val lies more than near above its block's minimum both before and
// after, or that fits neither before nor after, cannot change the
// block, so the update stops at once.
func (t *rankTree) update(ix *headroomIndex, m *Machine) {
	if !t.live() {
		return
	}
	i, v := m.Index, t.masked(ix, m)
	old := t.val[i]
	t.val[i] = v
	k := t.size + i/rankBlock
	if above := t.min[k] + t.near; old > above && v > above || old == v && v == math.Inf(1) {
		return
	}
	lo, tie := t.block(ix, i/rankBlock)
	for t.set(k, lo, tie) && k > 1 {
		k >>= 1
		lo, tie = t.merged(k)
	}
}

// rankChoice is the best candidate so far under a ranking:
// lexicographic (objective, −fuller, index) with tolerance eps — the
// least objective first; among objectives within eps, the machine
// fuller by more than eps; remaining ties keep the first (lowest-index)
// winner. With eps 0 and every fuller key 0 it is a strict less-than
// with ties toward the lower index.
type rankChoice struct {
	best        int // -1 until a candidate wins
	obj, fuller float64
}

// consider offers candidate i; the candidates must come in index order.
func (c *rankChoice) consider(i int, obj, fuller, eps float64) {
	switch {
	case c.best < 0 || obj < c.obj-eps:
		// Strictly lower objective.
	case obj <= c.obj+eps && fuller > c.fuller+eps:
		// Tied objective, strictly fuller machine.
	default:
		return
	}
	c.best, c.obj, c.fuller = i, obj, fuller
}

// skip reports whether the descent may pass over node k: no machine
// below it fits, or none can replace c's best. A candidate replaces the
// best only with an objective below best − eps, or within best + eps
// and fuller by more than eps. So a node whose minimum is above best +
// eps holds no winner, and neither does one whose minimum is at least
// best − eps and whose near-tie bound is at most the best's fuller key
// + eps: every candidate within best + eps lies within 2·eps of the
// minimum, inside the bound. (Without near-tie bounds every fuller key
// is 0, and a minimum of at least the best's suffices.) A NaN in the
// best's keys fails every comparison, so it prunes nothing.
func (t *rankTree) skip(k int, c *rankChoice) bool {
	lo := t.min[k]
	if lo == math.Inf(1) {
		return true
	}
	if c.best < 0 {
		return false
	}
	eps := t.by.eps()
	return lo > c.obj+eps || lo >= c.obj-eps && (t.tie == nil || t.tie[k] <= c.fuller+eps)
}

// pick returns the fleet index of the best admitting machine, or -1
// when none admits the demand. It visits the tree's nodes in machine
// order, descending into every node it cannot skip, and offers each
// admitting machine of a surviving block to the choice in index order;
// a skipped node holds no machine the choice would take, so the result
// is the linear scan's.
func (t *rankTree) pick(ix *headroomIndex) int {
	c := rankChoice{best: -1}
	for k := 1; ; {
		if !t.skip(k, &c) {
			if k < t.size {
				k *= 2
				continue
			}
			first := (k - t.size) * rankBlock
			for i := first; i < min(first+rankBlock, len(t.val)); i++ {
				v, m := t.val[i], ix.machines[i]
				if v == math.Inf(1) || !m.admits(t.demand, ix.overcommit) {
					continue
				}
				if v == math.MaxFloat64 || v == math.Inf(-1) { // maybe +Inf or NaN: ask the objective itself
					v = t.by.objective(t.row, m)
				}
				c.consider(i, v, t.by.fuller(m), t.by.eps())
			}
		}
		// On to the next subtree in machine order: climb past right
		// children, then step to the right sibling.
		for k&1 == 1 {
			k >>= 1
		}
		if k == 0 {
			return c.best
		}
		k++
	}
}
