package exp

import (
	"pictor/internal/stats"
)

// MeanOf extracts metric from each repetition's result and averages
// it across the repetitions (0 for none).
func MeanOf[T any](reps []T, metric func(T) float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	var sum float64
	for _, r := range reps {
		sum += metric(r)
	}
	return sum / float64(len(reps))
}

// PoolSummaries merges per-repetition distribution summaries into one:
// observation counts add, while the mean and each reported quantile are
// averaged across repetitions (the standard quantile-averaging
// estimator for repeated independent runs).
func PoolSummaries(ss []stats.Summary) stats.Summary {
	if len(ss) == 0 {
		return stats.Summary{}
	}
	if len(ss) == 1 {
		return ss[0]
	}
	var out stats.Summary
	inv := 1 / float64(len(ss))
	for _, s := range ss {
		out.N += s.N
		out.Mean += s.Mean * inv
		out.P1 += s.P1 * inv
		out.P25 += s.P25 * inv
		out.P75 += s.P75 * inv
		out.P99 += s.P99 * inv
	}
	return out
}
