package sim

import (
	"math"
	"math/rand"
	"sync"
)

// This file replicates math/rand's generator so that a stream is seeded
// only as far as it is drawn, bit for bit identical to
// rand.NewSource(seed) making the same draws.
//
// The simulator gives every model component a stream of its own (Fork),
// and churn builds a fresh cluster for every machine-epoch, so most
// streams make a few draws or none. math/rand seeds its whole register
// however little a stream draws: 1,841 steps of an LCG and 4.9 KB.
//
// The generator (rngSource) is an additive lagged-Fibonacci register of
// rngLen words with tap rngTap. Seeding sets element i to three
// consecutive values of the LCG x[n+1] = 48271·x[n] mod 2³¹-1, at chain
// positions 21+3i..23+3i (20 warm-up steps precede element 0), XORed
// with a fixed "cooked" constant. Draw k adds the feed vec[333-k] and
// the tap vec[606-k] (indices wrap at rngLen) and writes the sum to the
// feed. The tap first reaches a written element at draw rngTap, so every
// earlier draw reads two elements exactly as seeding left them, and a
// multiplicative LCG jumps to position n with one modmul by 48271ⁿ: a
// draw before rngTap costs six modmuls and no register. At draw rngTap
// the stream fills the register by jumps, replays the draws it served,
// and from then on draws as rngSource draws.
//
// The cooked constants are math/rand's own, read out of it at first use:
// rngLen draws of a fresh source write every element of its register
// once, so running the recurrence backwards gives the register as
// seeding left it, and XORing out the LCG part leaves the constants.
// The same first use checks the replica against math/rand over a spread
// of seeds; on any mismatch, say a toolchain that changed the generator,
// every stream is a real rand.NewSource instead.

const (
	rngLen  = 607       // words in math/rand's register
	rngTap  = 273       // its tap distance
	rngMask = 1<<63 - 1 // Int63 masks the sign bit off Uint64

	lehmerM = 1<<31 - 1 // modulus of math/rand's seeding LCG
	lehmerA = 48271     // its multiplier

	live = rngTap + 1 // stream.n once the register serves the draws
)

var (
	replicaOnce sync.Once
	replicaSlow bool // set when the replica fails its check: every stream is a rand.NewSource

	// jump[i] is 48271ⁿ mod 2³¹-1 for element i's first chain position,
	// n = 21+3i, and cooked[i] is element i's constant.
	jump, cooked [rngLen]uint64
)

// lcgStart is the LCG's starting value for a seed, normalized as
// rngSource.Seed normalizes it.
func lcgStart(seed int64) uint64 {
	s := seed % lehmerM
	if s < 0 {
		s += lehmerM
	}
	if s == 0 {
		s = 89482311 // rngSource.Seed's replacement for the fixed point 0
	}
	return uint64(s)
}

// chain is element i's LCG part for a source whose LCG starts at x0.
func chain(x0 uint64, i int) uint64 {
	a := x0 * jump[i] % lehmerM
	b := a * lehmerA % lehmerM
	c := b * lehmerA % lehmerM
	return a<<40 ^ b<<20 ^ c
}

// element is register element i as seeding leaves it for a source whose
// LCG starts at x0.
func element(x0 uint64, i int) uint64 { return chain(x0, i) ^ cooked[i] }

// lazyDraw returns draw k < rngTap of the source whose LCG starts at x0:
// the sum of its feed and tap elements as seeding left them.
func lazyDraw(x0 uint64, k int) uint64 {
	return element(x0, rngLen-rngTap-1-k) + element(x0, rngLen-1-k)
}

// stream is math/rand's generator for one seed, seeded only as far as
// it is drawn: its first rngTap draws are lazy draws, and its register
// serves the rest. It is a rand.Source64.
type stream struct {
	x0    uint64    // the seed's start on the LCG
	n     int       // draws served, up to rngTap; live once the register serves them
	reg   *register // reserved at the owner's first draw, filled at draw rngTap
	owner *RNG      // the RNG sampling this stream; nil for FirstNormal's replay
}

// Uint64 returns the stream's next draw. A stream an RNG samples
// reserves its register at its first draw here: a stream that draws on
// its own allocates when it starts drawing, typically in a cluster's
// set-up, and not at draw rngTap, in the middle of a measurement.
func (s *stream) Uint64() uint64 {
	if s.reg == nil && s.owner != nil {
		s.reg = new(register)
	}
	return s.next()
}

// Int63 returns the stream's next draw without its sign bit.
func (s *stream) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Seed restarts the stream at the start of seed's sequence.
func (s *stream) Seed(seed int64) { s.x0, s.n = lcgStart(seed), 0 }

// next returns the stream's next draw, reserving no register before
// draw rngTap: Fork draws this way.
func (s *stream) next() uint64 {
	if s.n < rngTap {
		s.n++
		return lazyDraw(s.x0, s.n-1)
	}
	if s.n == rngTap {
		s.fill()
	}
	return s.reg.Uint64()
}

// fill seeds the register, replays the draws served so far and moves
// the owner's sampler onto the register, so a draw from then on costs
// what a draw of rngSource costs.
func (s *stream) fill() {
	if s.reg == nil {
		s.reg = new(register)
	}
	s.reg.seed(s.x0)
	for i := 0; i < rngTap; i++ {
		s.reg.Uint64()
	}
	s.n = live
	if s.owner != nil {
		s.owner.r = *rand.New(s.reg)
	}
}

// register is rngSource: the feedback register and its two indices.
type register struct {
	tap, feed int
	vec       [rngLen]int64
}

// seed fills the register as rngSource.Seed does for a source whose LCG
// starts at x0.
func (r *register) seed(x0 uint64) {
	r.tap, r.feed = 0, rngLen-rngTap
	for i := range r.vec {
		r.vec[i] = int64(element(x0, i))
	}
}

// Seed restarts the register at the start of seed's sequence.
func (r *register) Seed(seed int64) { r.seed(lcgStart(seed)) }

// Int63 returns the next draw without its sign bit.
func (r *register) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Uint64 returns the next draw, as rngSource.Uint64 does.
func (r *register) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// deriveReplica computes the jump multipliers, reads the cooked
// constants out of math/rand and checks the replica against it.
func deriveReplica() {
	const a3 = lehmerA * lehmerA % lehmerM * lehmerA % lehmerM
	j := uint64(1)
	for n := 0; n < 21; n++ {
		j = j * lehmerA % lehmerM
	}
	for i := range jump {
		jump[i] = j
		j = j * a3 % lehmerM
	}
	// Draw k writes u[k] to the feed 333-k, which still held its seeded
	// value: u[k] is that value plus the tap 606-k (indices mod rngLen).
	// From draw rngTap on, the tap is the feed written rngTap draws
	// earlier, u[k-rngTap]. Before it, the tap still holds its seeded
	// value, which the first loop has already recovered: element 606-k
	// is the feed of draw k+334.
	const probe = 1 // any seed: replicaMatches checks the others
	src := rand.NewSource(probe).(rand.Source64)
	var u, vec [rngLen]uint64
	for k := range u {
		u[k] = src.Uint64()
	}
	for k := rngTap; k < rngLen; k++ {
		vec[(rngLen-rngTap-1-k+rngLen)%rngLen] = u[k] - u[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[rngLen-rngTap-1-k] = u[k] - vec[rngLen-1-k]
	}
	x0 := lcgStart(probe)
	for i := range cooked {
		cooked[i] = vec[i] ^ chain(x0, i)
	}
	replicaSlow = !replicaMatches()
}

// replicaMatches checks the replica against math/rand over a spread of
// seeds: every draw through the lazy draws, the fill and one turn of
// the register, and the ziggurat's first test against NormFloat64.
func replicaMatches() bool {
	seeds := []int64{0, 1, -1, lehmerM, -lehmerM, math.MaxInt64, math.MinInt64}
	for i := int64(0); i < 64; i++ {
		seeds = append(seeds, i*2654435761+12345)
	}
	var s stream
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed)
		for k := 0; k < 2*rngLen; k++ {
			if s.next() != want.Uint64() {
				return false
			}
		}
		v, ok := fastFirstNormal(lcgStart(seed))
		if ok && v != rand.New(rand.NewSource(seed)).NormFloat64() {
			return false
		}
	}
	return true
}

// fastFirstNormal is the ziggurat's first test over draw 0 of the
// source whose LCG starts at x0: it resolves ~97.2% of seeds. The
// rejection paths consume further draws, so they report !ok and the
// caller replays the stream.
func fastFirstNormal(x0 uint64) (float64, bool) {
	j := int32(uint32(int64(lazyDraw(x0, 0)&rngMask) >> 31)) // Rand.Uint32, possibly negative
	i := j & 0x7F
	if absInt32(j) < kn[i] {
		return float64(j) * float64(wn[i]), true
	}
	return 0, false
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// FirstNormal returns exactly what NewRNG(seed).Normal(0, 1) returns,
// without a register unless a ziggurat rejection runs to draw rngTap.
// Use it for the derive-seed-per-event discipline where each seed
// yields one draw.
func FirstNormal(seed int64) float64 {
	replicaOnce.Do(deriveReplica)
	if replicaSlow {
		return rand.New(rand.NewSource(seed)).NormFloat64()
	}
	x0 := lcgStart(seed)
	if v, ok := fastFirstNormal(x0); ok {
		return v
	}
	// Ziggurat rejection: replay the stream from draw 0 through the
	// stdlib's own rejection loop.
	return rand.New(&stream{x0: x0}).NormFloat64()
}

// FirstLogNormal returns exactly NewRNG(seed).LogNormalAround(m, sigma)
// — the one-draw lognormal jitter — at FirstNormal's cost.
func FirstLogNormal(seed int64, m, sigma float64) float64 {
	if m <= 0 {
		return 0
	}
	return m * math.Exp(sigma*FirstNormal(seed))
}

// kn and wn are the ziggurat accept tables from math/rand/normal.go:
// bucket thresholds and slice widths for the first-iteration accept test
// `absInt32(j) < kn[i] → x = j·wn[i]`. The rejection tables (fn, the
// base-strip tail) are not replicated: those paths run the stdlib's
// loop on a replayed stream.
var kn = [128]uint32{
	0x76ad2212, 0x0, 0x600f1b53, 0x6ce447a6, 0x725b46a2,
	0x7560051d, 0x774921eb, 0x789a25bd, 0x799045c3, 0x7a4bce5d,
	0x7adf629f, 0x7b5682a6, 0x7bb8a8c6, 0x7c0ae722, 0x7c50cce7,
	0x7c8cec5b, 0x7cc12cd6, 0x7ceefed2, 0x7d177e0b, 0x7d3b8883,
	0x7d5bce6c, 0x7d78dd64, 0x7d932886, 0x7dab0e57, 0x7dc0dd30,
	0x7dd4d688, 0x7de73185, 0x7df81cea, 0x7e07c0a3, 0x7e163efa,
	0x7e23b587, 0x7e303dfd, 0x7e3beec2, 0x7e46db77, 0x7e51155d,
	0x7e5aabb3, 0x7e63abf7, 0x7e6c222c, 0x7e741906, 0x7e7b9a18,
	0x7e82adfa, 0x7e895c63, 0x7e8fac4b, 0x7e95a3fb, 0x7e9b4924,
	0x7ea0a0ef, 0x7ea5b00d, 0x7eaa7ac3, 0x7eaf04f3, 0x7eb3522a,
	0x7eb765a5, 0x7ebb4259, 0x7ebeeafd, 0x7ec2620a, 0x7ec5a9c4,
	0x7ec8c441, 0x7ecbb365, 0x7ece78ed, 0x7ed11671, 0x7ed38d62,
	0x7ed5df12, 0x7ed80cb4, 0x7eda175c, 0x7edc0005, 0x7eddc78e,
	0x7edf6ebf, 0x7ee0f647, 0x7ee25ebe, 0x7ee3a8a9, 0x7ee4d473,
	0x7ee5e276, 0x7ee6d2f5, 0x7ee7a620, 0x7ee85c10, 0x7ee8f4cd,
	0x7ee97047, 0x7ee9ce59, 0x7eea0eca, 0x7eea3147, 0x7eea3568,
	0x7eea1aab, 0x7ee9e071, 0x7ee98602, 0x7ee90a88, 0x7ee86d08,
	0x7ee7ac6a, 0x7ee6c769, 0x7ee5bc9c, 0x7ee48a67, 0x7ee32efc,
	0x7ee1a857, 0x7edff42f, 0x7ede0ffa, 0x7edbf8d9, 0x7ed9ab94,
	0x7ed7248d, 0x7ed45fae, 0x7ed1585c, 0x7ece095f, 0x7eca6ccb,
	0x7ec67be2, 0x7ec22eee, 0x7ebd7d1a, 0x7eb85c35, 0x7eb2c075,
	0x7eac9c20, 0x7ea5df27, 0x7e9e769f, 0x7e964c16, 0x7e8d44ba,
	0x7e834033, 0x7e781728, 0x7e6b9933, 0x7e5d8a1a, 0x7e4d9ded,
	0x7e3b737a, 0x7e268c2f, 0x7e0e3ff5, 0x7df1aa5d, 0x7dcf8c72,
	0x7da61a1e, 0x7d72a0fb, 0x7d30e097, 0x7cd9b4ab, 0x7c600f1a,
	0x7ba90bdc, 0x7a722176, 0x77d664e5,
}

var wn = [128]float32{
	1.7290405e-09, 1.2680929e-10, 1.6897518e-10, 1.9862688e-10,
	2.2232431e-10, 2.4244937e-10, 2.601613e-10, 2.7611988e-10,
	2.9073963e-10, 3.042997e-10, 3.1699796e-10, 3.289802e-10,
	3.4035738e-10, 3.5121603e-10, 3.616251e-10, 3.7164058e-10,
	3.8130857e-10, 3.9066758e-10, 3.9975012e-10, 4.08584e-10,
	4.1719309e-10, 4.2559822e-10, 4.338176e-10, 4.418672e-10,
	4.497613e-10, 4.5751258e-10, 4.651324e-10, 4.7263105e-10,
	4.8001775e-10, 4.87301e-10, 4.944885e-10, 5.015873e-10,
	5.0860405e-10, 5.155446e-10, 5.2241467e-10, 5.2921934e-10,
	5.359635e-10, 5.426517e-10, 5.4928817e-10, 5.5587696e-10,
	5.624219e-10, 5.6892646e-10, 5.753941e-10, 5.818282e-10,
	5.882317e-10, 5.946077e-10, 6.00959e-10, 6.072884e-10,
	6.135985e-10, 6.19892e-10, 6.2617134e-10, 6.3243905e-10,
	6.386974e-10, 6.449488e-10, 6.511956e-10, 6.5744005e-10,
	6.6368433e-10, 6.699307e-10, 6.7618144e-10, 6.824387e-10,
	6.8870465e-10, 6.949815e-10, 7.012715e-10, 7.075768e-10,
	7.1389966e-10, 7.202424e-10, 7.266073e-10, 7.329966e-10,
	7.394128e-10, 7.4585826e-10, 7.5233547e-10, 7.58847e-10,
	7.653954e-10, 7.719835e-10, 7.7861395e-10, 7.852897e-10,
	7.920138e-10, 7.987892e-10, 8.0561924e-10, 8.125073e-10,
	8.194569e-10, 8.2647167e-10, 8.3355556e-10, 8.407127e-10,
	8.479473e-10, 8.55264e-10, 8.6266755e-10, 8.7016316e-10,
	8.777562e-10, 8.8545243e-10, 8.932582e-10, 9.0117996e-10,
	9.09225e-10, 9.174008e-10, 9.2571584e-10, 9.341788e-10,
	9.427997e-10, 9.515889e-10, 9.605579e-10, 9.697193e-10,
	9.790869e-10, 9.88676e-10, 9.985036e-10, 1.0085882e-09,
	1.0189509e-09, 1.0296151e-09, 1.0406069e-09, 1.0519566e-09,
	1.063698e-09, 1.0758702e-09, 1.0885183e-09, 1.1016947e-09,
	1.1154611e-09, 1.1298902e-09, 1.1450696e-09, 1.1611052e-09,
	1.1781276e-09, 1.1962995e-09, 1.2158287e-09, 1.2369856e-09,
	1.2601323e-09, 1.2857697e-09, 1.3146202e-09, 1.347784e-09,
	1.3870636e-09, 1.4357403e-09, 1.5008659e-09, 1.6030948e-09,
}
