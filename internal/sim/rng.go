package sim

import (
	"math"
	"math/rand"
)

// RNG wraps a deterministic random source. Every model component derives
// its own RNG (via Fork) so adding a component never perturbs the random
// streams of the others.
//
// Its draws are math/rand's, bit for bit: r is math/rand's own sampler,
// over src until src's register fills and over the register from then
// on (see mathrand.go).
type RNG struct {
	r   rand.Rand
	src stream
}

// NewRNG returns a seeded random source. It seeds nothing yet: a stream
// that only forks or never draws costs this one small object.
func NewRNG(seed int64) *RNG {
	replicaOnce.Do(deriveReplica)
	return newRNG(seed, replicaSlow)
}

// newRNG returns seed's stream: the replica, or with mathRand set a
// rand.NewSource itself, whose forks are too.
func newRNG(seed int64, mathRand bool) *RNG {
	g := new(RNG)
	if mathRand {
		g.r = *rand.New(rand.NewSource(seed))
		return g
	}
	g.src = stream{x0: lcgStart(seed), owner: g}
	g.r = *rand.New(&g.src)
	return g
}

// Fork derives an independent child stream, keyed by a label hash so the
// child's stream is stable across code reorderings that don't change labels.
// Its draw reserves no register, so a stream that only forks stays small.
func (g *RNG) Fork(label string) *RNG {
	var h int64 = 1469598103934665603 // FNV-1a offset basis (truncated)
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	if g.src.owner == nil { // g draws from rand.NewSource itself
		return newRNG(h^g.r.Int63(), true)
	}
	return newRNG(h^int64(g.src.next()&rngMask), false)
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Normal returns a Gaussian sample with the given mean and stddev.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + float64(stddev*g.r.NormFloat64())
}

// LogNormalAround returns a sample whose median is m and whose spread is
// controlled by sigma (sigma ~0.1 gives ±10%-ish jitter). Latency-like
// quantities in the simulator use this: strictly positive, right-skewed.
func (g *RNG) LogNormalAround(m, sigma float64) float64 {
	if m <= 0 {
		return 0
	}
	return m * math.Exp(sigma*g.r.NormFloat64())
}

// Exponential returns an exponential sample with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Poisson returns a Poisson sample with the given mean (Knuth's
// product-of-uniforms method — exact, and plenty fast for the per-epoch
// arrival counts the churn model draws). Non-positive means yield 0.
// Large means are split into chunks (Poisson(a+b) = Poisson(a) +
// Poisson(b) for independent draws): exp(-mean) underflows to exactly 0
// near mean ≈ 745, which would otherwise make the loop terminate only
// on uniform-product underflow and silently cap every sample there.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	const chunk = 500
	k := 0
	for ; mean > chunk; mean -= chunk {
		k += g.poissonKnuth(chunk)
	}
	return k + g.poissonKnuth(mean)
}

// poissonKnuth draws one Poisson sample for a mean small enough that
// exp(-mean) is comfortably above the float64 underflow threshold.
func (g *RNG) poissonKnuth(mean float64) int {
	limit := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= g.r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Jitter returns d scaled by a lognormal factor with spread sigma.
func (g *RNG) Jitter(d Duration, sigma float64) Duration {
	return DurationOfSeconds(g.LogNormalAround(float64(d)/1e9, sigma))
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }
