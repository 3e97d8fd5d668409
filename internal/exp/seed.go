package exp

// Deterministic per-unit seed derivation. Every (trial, repetition)
// execution unit needs its own RNG seed that is (a) stable — the same
// base seed, trial spec and repetition always derive the same seed, no
// matter how many workers run the grid or in what order — and (b) well
// mixed, so adjacent repetitions or near-identical trials do not get
// correlated random streams.

// SeedKey is a DeriveSeed key under construction: the FNV-1a state of
// the bytes appended so far (stdlib hash/fnv allocates; this is the
// same function inlined). FNV-1a folds bytes in one at a time, so a
// constant prefix is hashed once and each unit's suffix appended to it
// without formatting a string:
//
//	NewSeedKey("fleet/s").Int(id).Str("/e").Int(e).Seed(base, rep)
//
// equals DeriveSeed(base, fmt.Sprintf("fleet/s%d/e%d", id, e), rep).
type SeedKey uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewSeedKey starts a key with the given prefix.
func NewSeedKey(prefix string) SeedKey { return SeedKey(fnvOffset).Str(prefix) }

// Str appends s to the key.
func (k SeedKey) Str(s string) SeedKey {
	h := uint64(k)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return SeedKey(h)
}

// Int appends v in decimal, exactly as fmt's %d (and strconv.Itoa)
// writes it.
func (k SeedKey) Int(v int) SeedKey {
	var buf [20]byte // len("-9223372036854775808")
	i := len(buf)
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	for {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	if v < 0 {
		i--
		buf[i] = '-'
	}
	h := uint64(k)
	for _, c := range buf[i:] {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return SeedKey(h)
}

// Seed derives the unit seed for this key: DeriveSeed(base, key, rep)
// for the key the appends spelled out.
func (k SeedKey) Seed(base int64, rep int) int64 {
	x := splitmix64(uint64(base))
	x ^= splitmix64(uint64(k) + uint64(rep))
	return int64(splitmix64(x))
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014) —
// a bijective avalanche mix, so distinct inputs stay distinct.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveSeed derives the RNG seed for one execution unit from the
// runner's base seed, the trial's Key() and the repetition index.
//
// Repetitions of one trial can never collide: splitmix64 is a
// bijection and hash(key) + rep is distinct for each rep of the same
// key. Across distinct keys uniqueness is probabilistic — two units
// collide only if hash(keyA) + repA == hash(keyB) + repB, i.e. the
// keys' 64-bit FNV hashes land within a small-integer offset of each
// other (~n²/2⁶⁴ for an n-unit grid; negligible at any real grid
// size, and verified collision-free over the full suite grid by
// TestDeriveSeedCollisionFree).
func DeriveSeed(base int64, key string, rep int) int64 {
	return NewSeedKey(key).Seed(base, rep)
}
