package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// compareMain compares two sets of invocation records, parent first.
// Each file holds records as JSON lines (what -append writes, or the
// last line of an all-workload run). Each record contributes one value
// per metric and records pair up in file order, so make the two sides'
// invocations alternately: parent, change, change, parent, …
//
// Per (workload, metric) it reports both sides' median and quartiles
// and the share of pairs the change wins. A gain needs at least ten
// pairs, nine wins in ten and a median gap wider than the parent's
// interquartile range. An end-to-end metric whose median worsens by
// more than its bound is a regression; one whose run-to-run spread is
// wider than its bound is unresolved, unless every change sample beats
// every parent sample. Equal seeds must give equal output digests.
// The exit status is 1 when any regression or digest difference shows.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	parent, err := loadSide(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	change, err := loadSide(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	rows := compareSides(parent, change)
	printComparison(os.Stdout, rows, parent, change)
	for _, r := range rows {
		if r.verdict == verdictRegression {
			return 1
		}
	}
	for _, w := range parent.order {
		if digestsDiffer(parent, change, w) {
			return 1
		}
	}
	return 0
}

// side is one commit's readings: every record's value per workload and
// metric, in file order, and the output digest per workload and seed.
type side struct {
	order   []string
	samples map[string]map[string][]float64
	digests map[string]map[int64]string
}

func loadSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &side{samples: map[string]map[string][]float64{}, digests: map[string]map[int64]string{}}
	e2e := map[string]bool{}
	for _, d := range metricDefs() {
		e2e[d.name] = d.e2e
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		for _, w := range rec.Workloads {
			if s.samples[w.Workload] == nil {
				s.order = append(s.order, w.Workload)
				s.samples[w.Workload] = map[string][]float64{}
				s.digests[w.Workload] = map[int64]string{}
			}
			// An untraced record carries no per-layer readings.
			for name, m := range w.Metrics {
				if !e2e[name] && !rec.Trace {
					continue
				}
				s.samples[w.Workload][name] = append(s.samples[w.Workload][name], m.Value)
			}
			if w.Digest != "" {
				s.digests[w.Workload][w.Seed] = w.Digest
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.order) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return s, nil
}

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

const (
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictGain       = "gain"
	verdictSame       = "within bound"
)

type comparison struct {
	workload string
	def      metricDef
	p, c     [3]float64 // quartiles
	pairs    int
	wins     int
	worse    float64 // median change as a share of the parent's, positive = worse
	verdict  string
}

func compareSides(parent, change *side) []comparison {
	var rows []comparison
	for _, w := range parent.order {
		for _, d := range metricDefs() {
			ps, cs := parent.samples[w][d.name], change.samples[w][d.name]
			if len(ps) == 0 || len(cs) == 0 {
				continue
			}
			r := compareMetric(w, d, ps, cs)
			if r.p[1] == 0 && r.c[1] == 0 && !d.e2e {
				continue // a layer the workload does not exercise
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func compareMetric(w string, d metricDef, ps, cs []float64) comparison {
	r := comparison{workload: w, def: d}
	r.p[0], r.p[1], r.p[2] = quartiles(ps)
	r.c[0], r.c[1], r.c[2] = quartiles(cs)
	sign := 1.0 // +1 when a larger reading is worse
	if d.better == higher {
		sign = -1
	}
	r.pairs = min(len(ps), len(cs))
	for i := 0; i < r.pairs; i++ {
		if sign*(cs[i]-ps[i]) < 0 {
			r.wins++
		}
	}
	switch {
	case r.p[1] != 0:
		r.worse = sign * (r.c[1] - r.p[1]) / math.Abs(r.p[1])
	case r.c[1] != 0:
		r.worse = math.Copysign(math.Inf(1), sign*r.c[1])
	}
	spread := math.Max(relSpread(r.p), relSpread(r.c))
	// Every change sample better than every parent sample.
	dominates := sign*(sortedEnd(cs, sign > 0)-sortedEnd(ps, sign < 0)) < 0
	gain := r.pairs >= minPairs && r.worse < 0 && 10*r.wins >= 9*r.pairs &&
		math.Abs(r.c[1]-r.p[1]) > r.p[2]-r.p[0]
	switch {
	case d.e2e && r.worse > d.bound:
		r.verdict = verdictRegression
	case d.e2e && spread > d.bound && !dominates:
		r.verdict = verdictUnresolved
	case gain:
		r.verdict = verdictGain
	case d.e2e:
		r.verdict = verdictSame
	}
	return r
}

// relSpread is the interquartile range as a share of the median.
func relSpread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// sortedEnd returns the largest of xs, or the smallest when largest is
// false.
func sortedEnd(xs []float64, largest bool) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if largest {
		return d[len(d)-1]
	}
	return d[0]
}

func digestsDiffer(parent, change *side, w string) bool {
	for seed, pd := range parent.digests[w] {
		if cd, ok := change.digests[w][seed]; ok && cd != pd {
			return true
		}
	}
	return false
}

func printComparison(out io.Writer, rows []comparison, parent, change *side) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\twins\tbound\tverdict")
	for _, r := range rows {
		bound := "-"
		if r.def.e2e {
			bound = fmt.Sprintf("%.0f%%", 100*r.def.bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%% worse\t%d/%d\t%s\t%s\n",
			r.workload, r.def.name, quartileText(r.p, r.def.unit), quartileText(r.c, r.def.unit),
			100*r.worse, r.wins, r.pairs, bound, r.verdict)
	}
	tw.Flush()

	fmt.Fprintln(out)
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\toutputs\tregressions\tunresolved\tgains")
	for _, w := range parent.order {
		outputs := "no common seed"
		for seed := range parent.digests[w] {
			if _, ok := change.digests[w][seed]; ok {
				outputs = "identical"
			}
		}
		if digestsDiffer(parent, change, w) {
			outputs = "DIFFER"
		}
		by := map[string][]string{}
		for _, r := range rows {
			if r.workload == w {
				by[r.verdict] = append(by[r.verdict], r.def.name)
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", w, outputs,
			listOrNone(by[verdictRegression]), listOrNone(by[verdictUnresolved]), listOrNone(by[verdictGain]))
	}
	tw.Flush()
}

func quartileText(q [3]float64, unit string) string {
	return fmt.Sprintf("%.4g %s [%.4g, %.4g]", q[1], unit, q[0], q[2])
}

func listOrNone(xs []string) string {
	if len(xs) == 0 {
		return "none"
	}
	return strings.Join(xs, " ")
}
