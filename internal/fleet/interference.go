package fleet

// Interference is a symmetric pair-compatibility table: Score(a, b) is
// the predicted performance penalty of co-locating benchmarks a and b,
// as a fraction (0 = fully compatible, 0.3 = ~30% FPS loss each). The
// co-location experiment (§5.3, Figure 18/19) produces exactly this
// data — core.PairInterference measures it once per process from solo
// vs paired runs — but any source works; the type is plain data so the
// leaf stays free of the assembly layer.
//
// The table is dense: every name Set has seen gets an id, and scores
// holds each pair in an id × id matrix that Set keeps current. The read
// path — Score, and the per-resident sums behind BinPack — indexes a
// row by id instead of hashing a name pair, and builds nothing: one
// table is shared by concurrent trials (PairInterferenceAmong caches it
// per process), which may all read it once it is filled; each trial's
// catalog keeps its own copy of the ids of its kinds. Set must not run
// concurrently with reads.
type Interference struct {
	ids map[string]int // name → its row and column
	// scores is row-major, len(ids)² entries; unrecorded pairs hold 0.
	scores []float64
	// recorded marks the pairs Set has written, for Len.
	recorded []bool
	// gen counts Set calls, so a cost memo built on the table can tell
	// that the table changed under it.
	gen uint64
}

// NewInterference returns an empty table (every pair scores 0).
func NewInterference() *Interference {
	return &Interference{ids: make(map[string]int)}
}

// Set records the penalty for co-locating a with b (symmetric; a == b
// records the homogeneous-pair penalty).
func (it *Interference) Set(a, b string, score float64) {
	i, j := it.intern(a), it.intern(b)
	n := len(it.ids)
	it.scores[i*n+j], it.scores[j*n+i] = score, score
	it.recorded[i*n+j], it.recorded[j*n+i] = true, true
	it.gen++
}

// intern returns name's id, giving an unseen name the next one and
// growing the matrices by a zero row and column.
func (it *Interference) intern(name string) int {
	if i, ok := it.ids[name]; ok {
		return i
	}
	n := len(it.ids)
	scores := make([]float64, (n+1)*(n+1))
	recorded := make([]bool, (n+1)*(n+1))
	for i := 0; i < n; i++ {
		copy(scores[i*(n+1):], it.scores[i*n:(i+1)*n])
		copy(recorded[i*(n+1):], it.recorded[i*n:(i+1)*n])
	}
	it.ids[name] = n
	it.scores, it.recorded = scores, recorded
	return n
}

// row returns v's id and its scores against every id, or (-1, nil)
// when the table is nil or has never seen v's name (every pair with it
// scores 0).
func (it *Interference) row(v *Variant) (int, []float64) {
	if it == nil {
		return -1, nil
	}
	i := v.cat.ids(it)[v.Kind]
	if i < 0 {
		return -1, nil
	}
	n := len(it.ids)
	return i, it.scores[i*n : (i+1)*n]
}

// Score reports the penalty for co-locating a with b; unknown pairs
// (and a nil table) score 0.
func (it *Interference) Score(a, b string) float64 {
	if it == nil {
		return 0
	}
	i, iok := it.ids[a]
	j, jok := it.ids[b]
	if !iok || !jok {
		return 0
	}
	return it.scores[i*len(it.ids)+j]
}

// cost is the interference a request whose table row is row (see row)
// adds on a machine holding placed: its scores with each resident's
// served variant, summed left to right in placement order. Each
// resident's id comes from its catalog, so no name is hashed. A
// resident the table has no id for scores 0, and is skipped: adding +0
// to a sum begun at +0 never changes its bits. Every BinPack decision
// goes through this one sum, so the memoized and the exported paths
// agree to the bit.
func (it *Interference) cost(row []float64, placed []*Session) float64 {
	if row == nil {
		return 0
	}
	c := 0.0
	for _, s := range placed {
		v := s.Variant
		if j := v.cat.ids(it)[v.Kind]; j >= 0 {
			c += row[j]
		}
	}
	return c
}

// Len reports how many pairs have recorded scores.
func (it *Interference) Len() int {
	if it == nil {
		return 0
	}
	pairs := 0
	n := len(it.ids)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if it.recorded[i*n+j] {
				pairs++
			}
		}
	}
	return pairs
}
