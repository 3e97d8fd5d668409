package sim

import (
	"math"
	"math/rand"
	"sync"
)

// This file computes the first draws of a freshly seeded RNG without
// seeding it, bit-for-bit identical to NewRNG(seed) making the same
// draws.
//
// The simulator's determinism discipline derives a fresh seed per
// logical event (per session-epoch jitter, for example) so results
// never depend on evaluation order. math/rand makes that discipline
// expensive: Seed() warms a 607-element lagged-Fibonacci register (~1900
// Lehmer steps, ~5KB of state) even when the caller consumes a single
// value. On a million-session sweep that seeding is the dominant cost.
//
// The shortcut: draw k of a fresh source reads two register elements,
// vec[333-k]+vec[606-k] (feed starts at rngLen-rngTap=334, tap at 0;
// both decrement before the read), and writes the sum to vec[333-k].
// The tap first reaches a written element at draw 273, so every earlier
// draw reads elements exactly as seeding left them. Each vec[i] is
// built from three consecutive values of the seeding LCG
// x[n+1] = 48271·x[n] mod 2³¹-1 — element i uses chain positions
// 20+3i+1..3 (20 warmup steps precede element 0) — XORed with a fixed
// "cooked" constant. A multiplicative LCG jumps to position n with one
// modmul by 48271ⁿ, so a draw costs six modmuls.
//
// FirstNormal runs the ziggurat's first test on draw 0 itself, which
// accepts ~97.2% of seeds. A rejection consumes further draws, so the
// stdlib's own NormFloat64 then runs on firstSource, which serves the
// first firstWindow draws this way and hands over to a real source past
// them.
//
// The magic constants below are math/rand's: rngCooked[333-k] and
// rngCooked[606-k] for k < firstWindow from rng.go, and the ziggurat
// accept tables kn/wn from normal.go (Go stdlib, BSD license). They are
// frozen by the Go 1 compatibility promise — top-level math/rand
// sequences can never change — and verifyFirstDraw cross-checks against
// the real generator on first use anyway, falling back to full seeding
// on any mismatch.

const (
	lehmerM = 1<<31 - 1 // modulus of math/rand's seeding LCG
	lehmerA = 48271     // its multiplier

	rngFirstMask = 1<<63 - 1 // Int63 masks the sign bit off Uint64

	// firstWindow is how many draws firstSource rebuilds before seeding
	// a real source. Over 5M seeds a ziggurat rejection consumed 2–9
	// draws, and 99.98% of rejections at most 5.
	firstWindow = 8
)

// firstCooked[k] and firstCooked[firstWindow+k] are rngCooked[333-k]
// and rngCooked[606-k] from math/rand/rng.go: the constants of the two
// register elements draw k reads.
var firstCooked = [2 * firstWindow]int64{
	-4633371852008891965, 4287360518296753003, -1072987336855386047, 220828013409515943,
	-7602572252857820065, -4799698790548231394, 3648778920718647903, 581945337509520675,
	4152330101494654406, 9103922860780351547, 8382142935188824023, -2171292963361310674,
	-6278469401177312761, -307900319840287220, -1894351639983151068, -758328221503023383,
}

// firstJump[w] is the jump multiplier 48271ⁿ mod 2³¹-1 to the first
// chain position of the register element behind firstCooked[w]:
// n = 21+3i for element i.
var firstJump = func() (j [2 * firstWindow]uint64) {
	for k := uint64(0); k < firstWindow; k++ {
		j[k] = modexp(lehmerA, 21+3*(333-k))
		j[firstWindow+k] = modexp(lehmerA, 21+3*(606-k))
	}
	return j
}()

func modexp(base, exp uint64) uint64 {
	r, b := uint64(1), base%lehmerM
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			r = r * b % lehmerM
		}
		b = b * b % lehmerM
	}
	return r
}

// firstSeed is the LCG's starting value for a seed, normalized exactly
// as rngSource.Seed normalizes it.
func firstSeed(seed int64) uint64 {
	s := seed % lehmerM
	if s < 0 {
		s += lehmerM
	}
	if s == 0 {
		s = 89482311 // rngSource.Seed's replacement for the fixed point 0
	}
	return uint64(s)
}

// firstElement rebuilds the register element behind firstCooked[w] for
// a source whose LCG starts at x0.
func firstElement(x0 uint64, w int) uint64 {
	a := x0 * firstJump[w] % lehmerM
	b := a * lehmerA % lehmerM
	c := b * lehmerA % lehmerM
	return (a<<40 ^ b<<20 ^ c) ^ uint64(firstCooked[w])
}

// firstInt63 returns draw k < firstWindow of a source whose LCG starts
// at x0 — NewRNG(seed)'s (k+1)-th Int63 — without seeding a source.
func firstInt63(x0 uint64, k int) int64 {
	return int64((firstElement(x0, k) + firstElement(x0, firstWindow+k)) & rngFirstMask)
}

// firstSource is a rand.Source that replays a freshly seeded source's
// stream: its first firstWindow draws come from firstInt63, and later
// draws from a real source advanced past the draws already served.
type firstSource struct {
	seed int64
	x0   uint64
	k    int
	// seeded is the real source, seeded on the first draw past the window.
	seeded rand.Source
}

// Seed resets the source to the start of seed's stream.
func (s *firstSource) Seed(seed int64) { *s = firstSource{seed: seed, x0: firstSeed(seed)} }

// Int63 returns the stream's next draw.
func (s *firstSource) Int63() int64 {
	if s.k < firstWindow {
		s.k++
		return firstInt63(s.x0, s.k-1)
	}
	if s.seeded == nil {
		s.seeded = rand.NewSource(s.seed)
		for i := 0; i < firstWindow; i++ {
			s.seeded.Int63()
		}
	}
	return s.seeded.Int63()
}

// fastFirstNormal is the ziggurat's first test over the first uniform
// draw: it resolves ~97.2% of seeds. The rejection paths consume
// further draws, so they report !ok and the caller replays the stream.
func fastFirstNormal(seed int64) (float64, bool) {
	j := int32(uint32(firstInt63(firstSeed(seed), 0) >> 31)) // Rand.Uint32, possibly negative
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

var (
	firstDrawOnce sync.Once
	firstDrawSlow bool // set when verification fails: always fully seed
)

// verifyFirstDraw cross-checks the shortcut against the real generator
// over a spread of seeds on first use: every draw of firstSource's
// window, and the first-test normal. Any divergence — say a future
// toolchain breaking the Go 1 sequence promise — permanently routes
// every call through full seeding, trading speed for correctness.
func verifyFirstDraw() {
	seeds := []int64{0, 1, -1, lehmerM, -lehmerM, math.MaxInt64, math.MinInt64}
	for i := int64(0); i < 64; i++ {
		seeds = append(seeds, i*2654435761+12345)
	}
	var src firstSource
	for _, s := range seeds {
		want := rand.NewSource(s)
		src.Seed(s)
		for k := 0; k < firstWindow; k++ {
			if src.Int63() != want.Int63() {
				firstDrawSlow = true
				return
			}
		}
		v, ok := fastFirstNormal(s)
		if ok && v != rand.New(rand.NewSource(s)).NormFloat64() {
			firstDrawSlow = true
			return
		}
	}
}

// FirstNormal returns exactly what NewRNG(seed).Normal(0, 1) returns,
// without seeding a source unless a ziggurat rejection runs past
// firstSource's window. Use it for the derive-seed-per-event
// discipline where each seed yields one draw.
func FirstNormal(seed int64) float64 {
	firstDrawOnce.Do(verifyFirstDraw)
	if firstDrawSlow {
		return rand.New(rand.NewSource(seed)).NormFloat64()
	}
	if v, ok := fastFirstNormal(seed); ok {
		return v
	}
	// Ziggurat rejection: replay the identical stream from position
	// zero through the stdlib's own rejection loop.
	src := new(firstSource)
	src.Seed(seed)
	return rand.New(src).NormFloat64()
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
// base-strip tail) are not replicated — those paths run the stdlib's
// loop on firstSource.
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
