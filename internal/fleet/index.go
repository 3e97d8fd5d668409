package fleet

import "math"

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
// Leaves update from Machine.place/release/replace, the only writers
// of Demand. A machine's Cores is read only when its leaf updates (see
// Machine.Cores); a Fleet whose Overcommit or machine count changes
// gets a fresh index on its next query.
type headroomIndex struct {
	overcommit float64
	n          int // machines covered (leaves [0, n))
	size       int // leaf count, a power of two >= n
	// tree[1] is the root; node k's children are 2k and 2k+1, and the
	// leaf of machine i is tree[size+i]. Padding leaves hold -Inf.
	tree []float64
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
	ix := &headroomIndex{overcommit: overcommit, n: len(machines), size: size, tree: make([]float64, 2*size)}
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

// update refreshes machine m's leaf and its ancestors, stopping as soon
// as an ancestor's maximum is unchanged.
func (ix *headroomIndex) update(m *Machine) {
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

// leaves returns every machine's padded headroom, by fleet index. A
// policy that must rank every admitting machine scans them in order,
// asking the exact test only where a leaf is not below the demand.
func (ix *headroomIndex) leaves() []float64 { return ix.tree[ix.size : ix.size+ix.n] }

// next returns the first position >= from whose leaf admits demand d,
// or -1 when none does. It climbs from the leaf until a right-hand
// subtree admits d, then descends into that subtree's leftmost
// admitting leaf. It moves right only past subtrees whose maximum is
// below d, so it never skips an admitting leaf.
func (ix *headroomIndex) next(from int, d float64) int {
	if from >= ix.n {
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
