package sim

import (
	"math"
	"math/rand"
	"runtime"
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
	fast := 0
	for _, s := range seeds {
		if _, ok := fastFirstNormal(s); ok {
			fast++
		}
		if got, want := FirstNormal(s), NewRNG(s).Normal(0, 1); got != want {
			t.Fatalf("FirstNormal(%d) = %v, seeded RNG draws %v", s, got, want)
		}
	}
	if firstDrawSlow {
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

// TestFirstSourceMatchesSeededSource pins firstSource's stream draw for
// draw against a seeded math/rand source, for three windows' worth of
// draws: the rebuilt window and the handover past it.
func TestFirstSourceMatchesSeededSource(t *testing.T) {
	seeds := []int64{0, 1, -1, lehmerM, -lehmerM, math.MaxInt64, math.MinInt64}
	for i := int64(0); i < 1000; i++ {
		seeds = append(seeds, i*6364136223846793005+1442695040888963407)
	}
	var src firstSource
	for _, s := range seeds {
		seeded := rand.NewSource(s)
		src.Seed(s)
		for k := 0; k < 3*firstWindow; k++ {
			if got, want := src.Int63(), seeded.Int63(); got != want {
				t.Fatalf("seed %d draw %d: firstSource %d, seeded source %d", s, k, got, want)
			}
		}
	}
}

// firstNormalSeeds returns the first n seeds of a fixed sequence that
// the ziggurat's first test accepts, and the first n it rejects.
func firstNormalSeeds(n int) (accept, reject []int64) {
	for i := int64(0); len(accept) < n || len(reject) < n; i++ {
		s := i*2654435761 + 977
		if _, ok := fastFirstNormal(s); ok {
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
// nothing on accepting seeds, and on rejecting seeds at most the replay
// source and its Rand, never a seeded 607-element register (~5KB).
func TestFirstNormalAllocations(t *testing.T) {
	accept, reject := firstNormalSeeds(64)
	FirstNormal(0) // first-use verification seeds real sources; keep it out
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
