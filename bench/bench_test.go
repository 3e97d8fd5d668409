package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"pictor/internal/core"
)

// TestWorkloadsSmoke runs every workload constructor at a tiny size through
// set-up, two runs and (fleet) the replay, and checks what a full
// invocation checks: no failures, reproducible digests, work done.
func TestWorkloadsSmoke(t *testing.T) {
	tiny := []*workload{
		paperGrid(core.ExperimentConfig{WarmupSeconds: 0.5, Seconds: 1, MaxInstances: 1}),
		churnFull(3, 3, 2),
		diurnal(20, 4, 10, 1),
		flashBinpack(10, 6, 5, 40, 2),
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	for i, w := range tiny {
		if w.name != names[i] {
			t.Fatalf("tiny workload %d is %s, registry has %s", i, w.name, names[i])
		}
		t.Run(w.name, func(t *testing.T) {
			spans, err := w.setup(3)
			if err != nil {
				t.Fatal(err)
			}
			for name := range spans {
				if _, ok := newResult(w.name, 3).Metrics[name]; !ok {
					t.Errorf("set-up span %s is not in the metric table", name)
				}
			}
			a, b := w.run(3), w.run(3)
			if a.attempted == 0 || a.failed > 0 || b.failed > 0 {
				t.Fatalf("attempted %d, failed %d and %d", a.attempted, a.failed, b.failed)
			}
			if a.digest == "" || a.digest != b.digest {
				t.Errorf("digests %q and %q, want equal and set", a.digest, b.digest)
			}
			if !(a.work > 0) || len(a.units) == 0 {
				t.Errorf("work %g over %d units, want both positive", a.work, len(a.units))
			}
			if w.grid {
				n := 0
				for _, f := range families {
					n += a.familyN[f]
				}
				if n != a.attempted {
					t.Errorf("families cover %d of %d units", n, a.attempted)
				}
				return
			}
			rp, err := w.replay(3)
			if err == nil {
				err = w.checkReplay(rp, a.churn)
			}
			if err != nil {
				t.Error(err)
			}
		})
	}
}

func TestLayerAttribution(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"innermost layer frame wins", []string{
			"runtime.mallocgc", pkg + "fleet.(*Machine).Fits", pkg + "fleet.(*RoundRobin).pickDirect",
			pkg + "fleet.(*Churn).Offer", pkg + "core.(*churnPortal).Arrive", pkg + "engine.RunChurn",
		}, "fleet.place"},
		{"shared helper charged to its caller", []string{
			pkg + "fleet.sumDemand", pkg + "fleet.(*Machine).release", pkg + "fleet.(*Churn).releaseSlot",
			pkg + "fleet.(*Churn).DepartDue", pkg + "core.(*churnPortal).Depart",
		}, "fleet.depart"},
		{"longest prefix inside one package", []string{
			"math/rand.(*Rand).Float64", pkg + "sim.(*RNG).Float64", pkg + "sim.(*Kernel).Step",
		}, "sim.rng"},
		{"package rule", []string{pkg + "sim.(*Kernel).Step", pkg + "core.(*Cluster).Run"}, "sim.kernel"},
		{"surrogate under the kernel", []string{
			pkg + "exp.splitmix64", pkg + "exp.DeriveSeed", pkg + "core.(*surrogateEngine).AdvanceEpoch",
			pkg + "engine.RunChurn.func1",
		}, "core.surrogate"},
		{"GC background worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack",
		}, gcLayer},
		{"GC assist stays with the allocating layer", []string{
			"runtime.gcAssistAlloc", "runtime.mallocgc", pkg + "scene.(*Scene).Render",
		}, "scene"},
		{"no layer frame", []string{"runtime.futex", "runtime.notesleep", "main.main"}, otherLayer},
		{"empty stack", nil, otherLayer},
	}
	var samples []stackSample
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layer %s, want %s", c.name, got, c.want)
		}
		samples = append(samples, stackSample{frames: c.frames, nanos: 10_000_000})
	}
	got := attribute(samples)
	if len(got) != len(layers) {
		t.Errorf("attribute reported %d layers, want all %d", len(got), len(layers))
	}
	sum := 0.0
	for _, s := range got {
		sum += s
	}
	if want := 0.01 * float64(len(cases)); math.Abs(sum-want) > 1e-9 {
		t.Errorf("attributed %g s, want %g", sum, want)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, r := range layerRules {
		if !known[r.layer] {
			t.Errorf("rule %s names unreported layer %s", r.prefix, r.layer)
		}
	}
}

// pb appends protobuf fields, enough to hand-build a profile.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3), v)
}

func (b pb) bytes(field int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(data))), data...)
}

func TestDecodeProfile(t *testing.T) {
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2)) // samples/count
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4)) // cpu/nanoseconds
	// Packed location ids and values.
	p = p.bytes(2, pb{}.bytes(1, binary.AppendUvarint(binary.AppendUvarint(nil, 1), 2)).
		bytes(2, binary.AppendUvarint(binary.AppendUvarint(nil, 3), 30_000_000)))
	// Unpacked, one value at a time.
	p = p.bytes(2, pb{}.varint(1, 2).varint(2, 1).varint(2, 10_000_000))
	// Location 1 inlines function 2 into function 1; location 2 is function 3.
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 2)).bytes(4, pb{}.varint(1, 1)))
	p = p.bytes(4, pb{}.varint(1, 2).varint(3, 0x1234).bytes(4, pb{}.varint(1, 3).varint(2, 7)))
	for id, name := range []uint64{5, 6, 7} {
		p = p.bytes(5, pb{}.varint(1, uint64(id+1)).varint(2, name))
	}
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds", "main.outer", "main.inlined", "main.root"} {
		p = p.bytes(6, []byte(s))
	}
	p = p.varint(9, 123) // duration_nanos: a field the decoder skips
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	got, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{frames: []string{"main.inlined", "main.outer", "main.root"}, nanos: 30_000_000},
		{frames: []string{"main.root"}, nanos: 10_000_000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json, the contract the
// benchmark is run by, equal to what the harness measures and emits.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type e2eMetric struct {
		layerMetric
		Bound float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []e2eMetric   `json:"end_to_end"`
		PerLayer []layerMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}

	var ws []string
	for i, w := range workloads() {
		ws = append(ws, w.name)
		if i < len(spec.Workloads) && (spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why) {
			t.Errorf("BENCHMARK.json workload %d is %+v, harness has %s: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.Workloads) != len(ws) {
		t.Errorf("BENCHMARK.json lists %d workloads, harness %d", len(spec.Workloads), len(ws))
	}

	var e2e []e2eMetric
	var layer []layerMetric
	var e2eNames, layerNames []string
	for _, d := range metricDefs() {
		m := layerMetric{Name: d.name, Unit: d.unit, Better: d.better}
		if d.e2e {
			e2e = append(e2e, e2eMetric{m, d.bound})
			e2eNames = append(e2eNames, d.name)
		} else {
			layer = append(layer, m)
			layerNames = append(layerNames, d.name)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("BENCHMARK.json end_to_end differs from the metric table:\n got %+v\nwant %+v", spec.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(spec.PerLayer, layer) {
		t.Errorf("BENCHMARK.json per_layer differs from the metric table:\n got %+v\nwant %+v", spec.PerLayer, layer)
	}

	sort.Strings(e2eNames)
	sort.Strings(layerNames)
	for _, w := range ws {
		r := newResult(w, 1)
		for traced, want := range map[bool][]string{false: e2eNames, true: layerNames} {
			var got []string
			for name := range r.summaryLine(traced).Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (traced %v) emits %v, BENCHMARK.json names %v", w, traced, got, want)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	wall := metricDef{name: "wall_s", unit: "s", better: lower, bound: 0.25, e2e: true}
	rate := metricDef{name: "work_per_s", unit: "1/s", better: higher, bound: 0.25, e2e: true}
	steady := func(n int, v float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v * (1 + 0.01*float64(i%3-1))
		}
		return xs
	}
	wide := []float64{5, 15, 8, 12, 6, 14, 7, 13, 9, 11}
	cases := []struct {
		name   string
		def    metricDef
		ps, cs []float64
		want   string
	}{
		{"slower by more than the bound", wall, steady(10, 10), steady(10, 13), verdictRegression},
		{"lower throughput", rate, steady(10, 100), steady(10, 70), verdictRegression},
		{"faster in every pair", wall, steady(10, 10), steady(10, 8), verdictGain},
		{"faster, but too few pairs", wall, steady(9, 10), steady(9, 8), verdictSame},
		{"unchanged", wall, steady(10, 10), steady(10, 10.1), verdictSame},
		{"spread wider than the bound", wall, wide, wide, verdictUnresolved},
		{"wide but dominated", wall, wide, steady(10, 2), verdictGain},
	}
	for _, c := range cases {
		if got := compareMetric("w", c.def, c.ps, c.cs).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
