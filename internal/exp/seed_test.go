package exp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSeedKeyMatchesDeriveSeed pins the SeedKey builder to the
// Sprintf-keyed DeriveSeed it replaces on hot paths: over random IDs
// (including negatives and the int extremes), epochs, reps and bases,
// prefix + Int + Str + Int must derive exactly the seed of the
// formatted key.
func TestSeedKeyMatchesDeriveSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := []int{0, 1, 9, 10, -1, -10, math.MaxInt64, math.MinInt64}
	for i := 0; i < 2000; i++ {
		ids = append(ids, int(rng.Int63())>>rng.Intn(63)*(1-2*rng.Intn(2)))
	}
	prefix := NewSeedKey("fleet/surrogate/s")
	for _, id := range ids {
		e := rng.Intn(100000)
		rep := rng.Intn(8)
		base := rng.Int63() - rng.Int63()
		want := DeriveSeed(base, fmt.Sprintf("fleet/surrogate/s%d/e%d", id, e), rep)
		if got := prefix.Int(id).Str("/e").Int(e).Seed(base, rep); got != want {
			t.Fatalf("id %d epoch %d rep %d base %d: SeedKey %d, DeriveSeed %d", id, e, rep, base, got, want)
		}
	}
}

func TestSeedKeyAllocatesNothing(t *testing.T) {
	prefix := NewSeedKey("fleet/churn/m")
	var sink int64
	allocs := testing.AllocsPerRun(100, func() {
		sink += prefix.Int(12345).Str("/e").Int(-67).Seed(7, 1)
	})
	if allocs != 0 {
		t.Fatalf("SeedKey allocates %.1f times per seed, want 0", allocs)
	}
	_ = sink
}
