// Package stats provides the summary statistics Pictor reports:
// means, percentiles, distribution summaries in the style of the paper's
// Figure 6 (mean, 1%, 25%, 75%, 99% tiles), and percentage-error helpers
// for Table 3.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations and answers summary queries.
// The zero value is an empty sample ready for use.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
	sumSq  float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.sum += x
	s.sumSq += x * x
}

// AddAll records a batch of observations: one append and one
// invalidation for the whole batch instead of per element.
func (s *Sample) AddAll(xs []float64) {
	if len(xs) == 0 {
		return
	}
	s.xs = append(s.xs, xs...)
	s.sorted = false
	for _, x := range xs {
		s.sum += x
		s.sumSq += x * x
	}
}

// Grow pre-sizes the sample's backing array for at least n total
// observations, so a measurement loop of known length never re-grows.
func (s *Sample) Grow(n int) {
	if n <= cap(s.xs) {
		return
	}
	xs := make([]float64, len(s.xs), n)
	copy(xs, s.xs)
	s.xs = xs
}

// Reset discards all observations but keeps the backing array, so a
// warmup reset does not re-pay the sample's growth.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = false
	s.sum = 0
	s.sumSq = 0
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean reports the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Sum reports the total of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Variance reports the population variance.
func (s *Sample) Variance() float64 {
	n := float64(len(s.xs))
	if n == 0 {
		return 0
	}
	m := s.sum / n
	v := s.sumSq/n - m*m
	if v < 0 { // numerical guard
		return 0
	}
	return v
}

// StdDev reports the population standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min reports the smallest observation (0 if empty).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max reports the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

func (s *Sample) ensureSorted() {
	// Read-style queries (Values, Min, Max, Percentile) write no field
	// of an empty sample.
	if s.sorted || len(s.xs) == 0 {
		return
	}
	sort.Float64s(s.xs)
	s.sorted = true
}

// Percentile reports the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. Empty samples report 0.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Values returns a copy of the observations in sorted order.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Summary is the five-number description the paper plots in Figure 6.
type Summary struct {
	N    int
	Mean float64
	P1   float64
	P25  float64
	P75  float64
	P99  float64
}

// Summarize computes the Figure-6 style summary of the sample.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:    s.N(),
		Mean: s.Mean(),
		P1:   s.Percentile(1),
		P25:  s.Percentile(25),
		P75:  s.Percentile(75),
		P99:  s.Percentile(99),
	}
}

func (m Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p1=%.2f p25=%.2f p75=%.2f p99=%.2f",
		m.N, m.Mean, m.P1, m.P25, m.P75, m.P99)
}

// t95 holds two-sided 95% Student-t quantiles by degrees of freedom
// (1..30); beyond 30 the normal 1.96 is close enough.
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TQuantile95 reports the two-sided 95% Student-t critical value for
// the given degrees of freedom.
func TQuantile95(df int) float64 {
	if df <= 0 {
		return 0
	}
	if df <= len(t95) {
		return t95[df-1]
	}
	return 1.96
}

// MeanCI95 reports the sample mean and the half-width of its 95%
// confidence interval (Student's t on the sample standard deviation).
// Samples with fewer than two observations have unbounded uncertainty;
// they report a zero half-width since no interval can be estimated.
func (s *Sample) MeanCI95() (mean, half float64) {
	n := len(s.xs)
	mean = s.Mean()
	if n < 2 {
		return mean, 0
	}
	// Unbiased (n-1) variance from the population variance.
	sd := math.Sqrt(s.Variance() * float64(n) / float64(n-1))
	return mean, TQuantile95(n-1) * sd / math.Sqrt(float64(n))
}

// PercentError reports |got-want|/want as a percentage. A zero reference
// with a zero measurement is 0%; a zero reference otherwise is +Inf.
func PercentError(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want) * 100
}

// PercentChange reports (got-want)/want as a signed percentage.
func PercentChange(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return (got - want) / math.Abs(want) * 100
}

// Counter is a windowless event-rate counter (e.g. frames for FPS).
type Counter struct {
	n     int64
	first float64 // seconds
	last  float64
	seen  bool
}

// Tick records one event at time t (in seconds).
func (c *Counter) Tick(t float64) {
	if !c.seen {
		c.first = t
		c.seen = true
	}
	c.last = t
	c.n++
}

// Count reports the number of recorded events.
func (c *Counter) Count() int64 { return c.n }

// Rate reports events per second over the span [first, horizon]. The
// horizon is the experiment end; using it (not the last event) avoids
// inflating rates for streams that stall.
func (c *Counter) Rate(horizonSeconds float64) float64 {
	if !c.seen || horizonSeconds <= c.first {
		return 0
	}
	return float64(c.n) / (horizonSeconds - c.first)
}

// Mean of a plain slice, for quick table math.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean reports the geometric mean of strictly positive values.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
