package main

import (
	"math"
	"sort"
)

// metricDef is one reported metric. End-to-end metrics are what a user
// of the simulator sees, measured with tracing off; their bound is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression. Per-layer metrics come from the traced
// run and the set-up spans, and carry no bound.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	e2e    bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// families are the paper-grid trial families, named by trial-ID prefix.
var families = []string{"method", "char", "pair", "container", "opt", "overhead"}

// setupSpans are the set-up calls timed one by one.
var setupSpans = []string{"agent.train_s", "core.surrogate_calib_s", "core.interference_s"}

// metricDefs lists every metric in report order. BENCHMARK.json mirrors
// it (a test keeps the two equal).
func metricDefs() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", lower, 0.25, true},
		{"work_per_s", "1/s", higher, 0.25, true},
		{"peak_rss_mb", "MiB", lower, 0.10, true},
		{"alloc_kib_per_work", "KiB", lower, 0.05, true},
		{"wall_s", "s", lower, 0, false},
		{"unit_p50_ms", "ms", lower, 0, false},
		{"unit_p85_ms", "ms", lower, 0, false},
		{"traced_wall_s", "s", lower, 0, false},
		{"trace_overhead_pct", "%", lower, 0, false},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{name: "cpu." + l + "_s", unit: "s", better: lower})
	}
	for _, s := range setupSpans {
		defs = append(defs, metricDef{name: s, unit: "s", better: lower})
	}
	for _, f := range families {
		defs = append(defs,
			metricDef{name: "exp." + f + "_s", unit: "s", better: lower},
			metricDef{name: "exp." + f + "_units", unit: "count", better: higher})
	}
	return append(defs,
		metricDef{name: "fleet.replay.arrival_s", unit: "s", better: lower},
		metricDef{name: "fleet.replay.depart_s", unit: "s", better: lower},
		metricDef{name: "fleet.replay.place_s", unit: "s", better: lower},
		metricDef{name: "fleet.replay.offers", unit: "count", better: higher},
		metricDef{name: "fleet.replay.rejects", unit: "count", better: lower},
		metricDef{name: "fleet.replay.accept_ratio", unit: "ratio", better: higher},
		metricDef{name: "fleet.replay.place_ns_per_offer", unit: "ns", better: lower},
		metricDef{name: "surrogate_avail_err_pt", unit: "pt", better: lower},
		metricDef{name: "surrogate_qos_err_per_k", unit: "per_1k", better: lower},
	)
}

// metricValue is one metric as reported: the value, its unit and, when
// the value summarizes several runs, each run's reading.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is everything one invocation measured on one workload.
// Every metric of metricDefs is present; a layer the workload does not
// exercise reads zero.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Digest    string                 `json:"digest"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(name string, seed int64) *workloadResult {
	r := &workloadResult{Workload: name, Seed: seed, Metrics: map[string]metricValue{}}
	for _, d := range metricDefs() {
		r.Metrics[d.name] = metricValue{Unit: d.unit}
	}
	return r
}

// set records a metric the table defines; any other name is a bug.
func (r *workloadResult) set(name string, v float64, samples []float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: metric " + name + " is not in the metric table")
	}
	m.Value, m.Samples = v, samples
	r.Metrics[name] = m
}

// summaryLine is the one-line summary the benchmark prints last: the end-
// to-end metrics of an untraced invocation, or the per-layer metrics of
// a traced one.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *workloadResult) summaryLine(traced bool) summaryLine {
	out := summaryLine{
		Correct:   r.Failed == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range metricDefs() {
		if d.e2e != traced {
			m := r.Metrics[d.name]
			out.Metrics[d.name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}

// median returns the middle of xs (the mean of the two middles for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads read the same in both.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(len(d)-1)
	lo := int(rank)
	if lo >= len(d)-1 {
		return d[len(d)-1]
	}
	return d[lo] + (rank-float64(lo))*(d[lo+1]-d[lo])
}
