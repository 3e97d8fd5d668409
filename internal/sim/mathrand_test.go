package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestFirstNormalMatchesSeededRNG is the load-bearing guarantee for the
// O(1) first-draw path: for every seed — fast-accept or ziggurat
// fallback — FirstNormal must equal the full generator bit-for-bit,
// because the surrogate tier's jitter values are pinned by goldens.
func TestFirstNormalMatchesSeededRNG(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, -2,
		1<<31 - 1, -(1<<31 - 1), 1 << 31, -(1 << 31),
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	// A dense band around zero plus a multiplicative spread across the
	// seed space: enough draws to land in every ziggurat bucket many
	// times over (128 buckets, 20k+ samples).
	for i := int64(-2000); i < 2000; i++ {
		seeds = append(seeds, i)
	}
	for i := int64(0); i < 20000; i++ {
		seeds = append(seeds, i*2654435761+977)
	}
	replicaOnce.Do(deriveReplica)
	fast := 0
	for _, s := range seeds {
		if _, ok := fastFirstNormal(lcgStart(s)); ok {
			fast++
		}
		if got, want := FirstNormal(s), NewRNG(s).Normal(0, 1); got != want {
			t.Fatalf("FirstNormal(%d) = %v, seeded RNG draws %v", s, got, want)
		}
	}
	if replicaSlow {
		t.Fatal("verification demoted FirstNormal to the slow path")
	}
	// The shortcut must actually engage: the ziggurat accepts the first
	// iteration for ~97.2% of seeds, so anything below 90% means the
	// tables or the register reconstruction are wrong in a way that
	// happens to fall back rather than diverge.
	if ratio := float64(fast) / float64(len(seeds)); ratio < 0.9 {
		t.Fatalf("fast path accepted only %.1f%% of seeds", 100*ratio)
	}
}

// TestFirstLogNormalMatchesLogNormalAround pins the jitter-shaped
// wrapper, including the non-positive-median guard.
func TestFirstLogNormalMatchesLogNormalAround(t *testing.T) {
	for i := int64(0); i < 500; i++ {
		s := i*40503 + 7
		if got, want := FirstLogNormal(s, 1, 0.05), NewRNG(s).LogNormalAround(1, 0.05); got != want {
			t.Fatalf("FirstLogNormal(%d) = %v, LogNormalAround draws %v", s, got, want)
		}
	}
	if v := FirstLogNormal(3, 0, 0.05); v != 0 {
		t.Fatalf("non-positive median must clamp to 0, got %v", v)
	}
	if v := FirstLogNormal(3, -2, 0.05); v != 0 {
		t.Fatalf("negative median must clamp to 0, got %v", v)
	}
}

// firstNormalSeeds returns the first n seeds of a fixed sequence that
// the ziggurat's first test accepts, and the first n it rejects.
func firstNormalSeeds(n int) (accept, reject []int64) {
	replicaOnce.Do(deriveReplica)
	for i := int64(0); len(accept) < n || len(reject) < n; i++ {
		s := i*2654435761 + 977
		if _, ok := fastFirstNormal(lcgStart(s)); ok {
			if len(accept) < n {
				accept = append(accept, s)
			}
		} else if len(reject) < n {
			reject = append(reject, s)
		}
	}
	return accept, reject
}

// TestFirstNormalAllocations pins what the shortcut costs the heap:
// nothing on accepting seeds, and on rejecting seeds at most the replayed
// stream, never a 607-word register (~5KB).
func TestFirstNormalAllocations(t *testing.T) {
	accept, reject := firstNormalSeeds(64)
	FirstNormal(0) // the replica's first-use check seeds real sources; keep it out
	i := 0
	if a := testing.AllocsPerRun(256, func() {
		FirstNormal(accept[i%len(accept)])
		i++
	}); a != 0 {
		t.Fatalf("accepting seeds allocate %v objects per call, want 0", a)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range reject {
		FirstNormal(s)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(reject)); per > 256 {
		t.Fatalf("rejecting seeds allocate %d B per call, want <= 256", per)
	}
}

// replicaSeeds returns the edge seeds of math/rand's seeding and n
// seeds drawn at random from the whole int64 range.
func replicaSeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 2, lehmerM, -lehmerM, lehmerM + 1, 2 * lehmerM,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	r := rand.New(rand.NewSource(20261019))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// rngMethods draws once through each RNG method, as bits. "Fork" draws
// the child's first value, so it also checks the child's seed.
var rngMethods = []struct {
	name string
	draw func(*RNG) uint64
}{
	{"Float64", func(g *RNG) uint64 { return math.Float64bits(g.Float64()) }},
	{"Intn", func(g *RNG) uint64 { return uint64(g.Intn(1000)) }},
	{"Intn63", func(g *RNG) uint64 { return uint64(g.Intn(1 << 40)) }},
	{"Normal", func(g *RNG) uint64 { return math.Float64bits(g.Normal(3, 2)) }},
	{"LogNormalAround", func(g *RNG) uint64 { return math.Float64bits(g.LogNormalAround(5, 0.3)) }},
	{"Exponential", func(g *RNG) uint64 { return math.Float64bits(g.Exponential(2)) }},
	{"Poisson", func(g *RNG) uint64 { return uint64(g.Poisson(3.5)) }},
	{"Jitter", func(g *RNG) uint64 { return uint64(g.Jitter(Millisecond, 0.1)) }},
	{"Bool", func(g *RNG) uint64 {
		if g.Bool(0.4) {
			return 1
		}
		return 0
	}},
	{"Fork", func(g *RNG) uint64 { return math.Float64bits(g.Fork("child").Float64()) }},
}

// TestRNGMatchesMathRand is the replica's contract: through every RNG
// method, a stream draws exactly what an RNG over
// rand.New(rand.NewSource(seed)) draws, before draw rngTap, across the
// fill, and over several turns of the register. Each edge seed runs
// every method alone for several thousand calls; each random seed runs
// a mix of all of them past draw rngLen.
func TestRNGMatchesMathRand(t *testing.T) {
	seeds := replicaSeeds(1000)
	for si, seed := range seeds {
		calls, mixed := 700, true
		if si < 11 {
			calls, mixed = 5000, false
		}
		for mi, m := range rngMethods {
			if mixed && mi > 0 {
				break
			}
			g, want := NewRNG(seed), newRNG(seed, true)
			for c := 0; c < calls; c++ {
				d := m
				if mixed {
					d = rngMethods[(c*7+si)%len(rngMethods)]
				}
				if got, w := d.draw(g), d.draw(want); got != w {
					t.Fatalf("seed %d call %d (%s): replica %#x, math/rand %#x", seed, c, d.name, got, w)
				}
			}
		}
	}
	if replicaSlow {
		t.Fatal("the replica failed its first-use check")
	}
}

// TestRNGDrawCountBoundaries stops a stream after exactly n own draws,
// around the lazy draws' end, the fill and the register's turn, then
// forks it and draws on: Fork's draw at each boundary, and the stream
// after it, must match math/rand.
func TestRNGDrawCountBoundaries(t *testing.T) {
	for _, seed := range replicaSeeds(20) {
		for _, n := range []int{0, 1, 7, 8, 9, 271, 272, 273, 274, 606, 607, 608, 4000} {
			g, want := NewRNG(seed), newRNG(seed, true)
			for k := 0; k < n; k++ {
				if got, w := g.Float64(), want.Float64(); got != w {
					t.Fatalf("seed %d draw %d: replica %v, math/rand %v", seed, k, got, w)
				}
			}
			gc, wc := g.Fork("after"), want.Fork("after")
			for k := 0; k < 300; k++ {
				if got, w := gc.Float64(), wc.Float64(); got != w {
					t.Fatalf("seed %d, fork after %d draws, child draw %d: replica %v, math/rand %v", seed, n, k, got, w)
				}
				if got, w := g.Float64(), want.Float64(); got != w {
					t.Fatalf("seed %d, fork after %d draws, parent draw %d: replica %v, math/rand %v", seed, n, k, got, w)
				}
			}
		}
	}
}

// TestRNGForksPastTap forks one stream more than rngTap times, so a Fork
// fills the register of a stream that never drew on its own. Every child
// and the parent's own draws after must match math/rand, and the
// register must exist only from the fill on.
func TestRNGForksPastTap(t *testing.T) {
	for _, seed := range replicaSeeds(8) {
		g, want := NewRNG(seed), newRNG(seed, true)
		for i := 0; i < 2*rngTap+5; i++ {
			if i <= rngTap && g.src.reg != nil {
				t.Fatalf("seed %d: a fork-only stream reserved its register after %d forks", seed, i)
			}
			label := fmt.Sprintf("child-%d", i)
			if got, w := g.Fork(label).Float64(), want.Fork(label).Float64(); got != w {
				t.Fatalf("seed %d fork %d: replica child draws %v, math/rand child %v", seed, i, got, w)
			}
		}
		for k := 0; k < rngLen; k++ {
			if got, w := g.Normal(0, 1), want.Normal(0, 1); got != w {
				t.Fatalf("seed %d own draw %d after the forks: replica %v, math/rand %v", seed, k, got, w)
			}
		}
	}
}

// TestRNGRegisterLifecycle pins when a stream pays for its register:
// never for forks before draw rngTap, at its first own draw, and from
// draw rngTap on the RNG samples the register directly, as math/rand's
// own Rand samples its rngSource.
func TestRNGRegisterLifecycle(t *testing.T) {
	g := NewRNG(7)
	g.Fork("a")
	if g.src.reg != nil {
		t.Fatal("a fork reserved the register")
	}
	g.Float64()
	if g.src.reg == nil {
		t.Fatal("the first own draw did not reserve the register")
	}
	if g.r == *rand.New(g.src.reg) {
		t.Fatal("the RNG samples the register before it is filled")
	}
	for g.src.n < live {
		g.Float64()
	}
	if g.r != *rand.New(g.src.reg) {
		t.Fatal("after the fill the RNG does not sample the register directly")
	}
}

// TestRNGFallbackMatchesMathRand breaks one cooked constant, so the
// first-use check must fail, and runs the fallback it selects: every
// stream is then a rand.NewSource itself and must draw the same values.
func TestRNGFallbackMatchesMathRand(t *testing.T) {
	replicaOnce.Do(deriveReplica)
	saved := cooked
	defer func() { cooked, replicaSlow = saved, false }()
	cooked[rngLen-1] ^= 1 << 40
	if replicaMatches() {
		t.Fatal("the first-use check accepts a replica with a wrong constant")
	}
	cooked = saved
	replicaSlow = true
	for _, seed := range replicaSeeds(50) {
		g, want := NewRNG(seed), rand.New(rand.NewSource(seed))
		if g.src.owner != nil {
			t.Fatal("the fallback built a replica stream")
		}
		for k := 0; k < rngLen+5; k++ {
			if got, w := g.Float64(), want.Float64(); got != w {
				t.Fatalf("fallback seed %d draw %d: %v, math/rand %v", seed, k, got, w)
			}
		}
		if got, w := FirstNormal(seed), rand.New(rand.NewSource(seed)).NormFloat64(); got != w {
			t.Fatalf("fallback FirstNormal(%d) = %v, math/rand %v", seed, got, w)
		}
	}
}

// TestReplicaConstants checks the constants read out of math/rand
// against four of rngCooked's, copied from math/rand/rng.go.
func TestReplicaConstants(t *testing.T) {
	replicaOnce.Do(deriveReplica)
	for i, want := range map[int]int64{
		0:   -4181792142133755926,
		1:   -4576982950128230565,
		333: -4633371852008891965,
		606: 4152330101494654406,
	} {
		if got := int64(cooked[i]); got != want {
			t.Errorf("cooked[%d] = %d, rngCooked[%d] = %d", i, got, i, want)
		}
	}
}

// TestReplicaConcurrentFirstUse derives the replica afresh while several
// goroutines make their first streams at once: each must draw what
// math/rand draws. Run under -race, it checks that the derivation is
// published to every goroutine before its first draw.
func TestReplicaConcurrentFirstUse(t *testing.T) {
	replicaOnce.Do(deriveReplica)
	saved := cooked
	jump, cooked, replicaSlow = [rngLen]uint64{}, [rngLen]uint64{}, false
	replicaOnce = sync.Once{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				seed := int64(w*1000 + i)
				if w%2 == 1 {
					if got, want := FirstNormal(seed), rand.New(rand.NewSource(seed)).NormFloat64(); got != want {
						t.Errorf("goroutine %d: FirstNormal(%d) = %v, math/rand %v", w, seed, got, want)
					}
				}
				g, want := NewRNG(seed), rand.New(rand.NewSource(seed))
				for k := 0; k < rngLen; k++ {
					if got, w2 := g.Float64(), want.Float64(); got != w2 {
						t.Errorf("goroutine %d seed %d draw %d: %v, math/rand %v", w, seed, k, got, w2)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if cooked != saved || replicaSlow {
		t.Fatal("a concurrent first use derived different constants")
	}
}

// TestForkOnlyStreamAllocations pins what a stream that never draws on
// its own costs: the RNG object and nothing else, against ~5.4 KB for a
// seeded math/rand source and its Rand.
func TestForkOnlyStreamAllocations(t *testing.T) {
	NewRNG(0) // the replica's first-use check seeds real sources; keep it out
	if a := testing.AllocsPerRun(100, func() { NewRNG(7).Fork("child") }); a > 2 {
		t.Fatalf("a stream and its one fork allocate %v objects, want 2", a)
	}
	const clusters = 64
	var before, after runtime.MemStats
	root := NewRNG(42)
	runtime.ReadMemStats(&before)
	for i := 0; i < clusters; i++ {
		c := root.Fork("cluster")
		for _, l := range []string{"cpu", "gpu", "net"} {
			c.Fork(l)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / (4 * clusters); per > 256 {
		t.Fatalf("a fork-only stream allocates %d B, want <= 256", per)
	}
}
