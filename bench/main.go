// Command bench measures Pictor end to end and layer by layer on four
// workloads: the paper's evaluation grid (per-frame simulation) and
// three fleet churn shapes. Run it from the repository root:
//
//	bash bench/run.sh                          # every workload, each in its own process
//	bash bench/run.sh -workload diurnal-1m -seed 2 -trace 0
//	bash bench/run.sh compare PARENT.jsonl CHANGE.jsonl
//
// A workload invocation times set-up in fresh processes (the caches it
// fills are process-global), makes one discarded warm-up run, then
// timed runs with tracing off until both -runs and -seconds are met,
// and with -trace 1 one more run under the CPU profiler plus the
// per-layer replays. Its last line of output is one JSON object: the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
// See bench/README.md for the workloads, metrics and bounds.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupChildren is how many extra fresh processes time the set-up, on
// top of the measuring process's own; setup_s is the median of all.
const setupChildren = 2

type options struct {
	seed    int64
	seconds float64
	runs    int
	trace   bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to measure; empty measures every workload, each in its own process")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 0, "keep making timed runs until this many seconds have passed")
	runs := fs.Int("runs", 3, "make at least this many timed runs")
	trace := fs.Int("trace", 1, "1: add the profiled run and the replays, and print the per-layer metrics last; 0: print the end-to-end metrics last")
	appendTo := fs.String("append", "", "append this invocation's record, stamped with commit and toolchain, as one JSON line to `file`")
	setupOnly := fs.Bool("setup-only", false, "internal: time one set-up of -workload and print the seconds")
	child := fs.Bool("child", false, "internal: print the workload record as the last line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *runs < 1 || *seconds < 0 || math.IsInf(*seconds, 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -runs >= 1, -seconds >= 0, -trace 0 or 1, and no arguments")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, runs: *runs, trace: *trace == 1}

	if *name == "" {
		if *setupOnly || *child {
			fmt.Fprintln(os.Stderr, "bench: -setup-only and -child need -workload")
			return 2
		}
		return runAll(o, *appendTo)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *setupOnly {
		t0 := time.Now()
		if _, err := w.setup(o.seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench: set-up:", err)
			return 1
		}
		fmt.Println(time.Since(t0).Seconds())
		return 0
	}

	res := measure(w, o)
	printResult(res, o.trace)
	if *appendTo != "" {
		if err := appendRecord(*appendTo, newRecord(o, []*workloadResult{res})); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	var last any = res.summaryLine(o.trace)
	if *child {
		last = res
	}
	if err := printJSON(last); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// measure makes one invocation's runs of w and returns every metric.
func measure(w *workload, o options) *workloadResult {
	res := newResult(w.name, o.seed)
	fail := func(format string, args ...any) {
		res.Failed++
		logf(w.name+": "+format, args...)
	}

	// Set-up: the caches it fills are process-global, so each timing
	// beyond the first needs a fresh process.
	var setups []float64
	for i := 0; i < setupChildren; i++ {
		res.Attempted++
		s, err := setupInChild(w, o.seed)
		if err != nil {
			fail("set-up in a child process: %v", err)
			continue
		}
		setups = append(setups, s)
	}
	res.Attempted++
	t0 := time.Now()
	spans, err := w.setup(o.seed)
	own := time.Since(t0).Seconds()
	if err != nil {
		fail("set-up: %v", err)
		return res
	}
	setups = append(setups, own)
	res.set("setup_s", median(setups), setups)
	for name, s := range spans {
		res.set(name, s, nil)
	}
	logf("%s: set-up %.3f s (median of %d)", w.name, median(setups), len(setups))

	// The warm-up run is checked like every other run; its digest is
	// the one the later runs must reproduce.
	ref := w.run(o.seed)
	check := func(r runResult) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.failed == 0 && r.digest != ref.digest {
			fail("digest %s differs from the warm-up run's %s", r.digest, ref.digest)
		}
	}
	res.Attempted += ref.attempted
	res.Failed += ref.failed
	res.Digest = ref.digest

	var walls, rates, allocs, p50s, p85s []float64
	start := time.Now()
	for n := 0; n < o.runs || time.Since(start).Seconds() < o.seconds; n++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		r := w.run(o.seed)
		wall := time.Since(t).Seconds()
		runtime.ReadMemStats(&after)
		check(r)
		logf("%s: run %d %.3f s, %d units", w.name, n+1, wall, len(r.units))
		if r.failed > 0 {
			continue
		}
		walls = append(walls, wall)
		rates = append(rates, r.work/wall)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/1024/r.work)
		p50s = append(p50s, 1000*percentile(r.units, 50))
		p85s = append(p85s, 1000*percentile(r.units, 85))
	}
	if len(walls) == 0 {
		return res
	}
	res.set("wall_s", median(walls), walls)
	res.set("work_per_s", median(rates), rates)
	res.set("alloc_kib_per_work", median(allocs), allocs)
	res.set("unit_p50_ms", median(p50s), p50s)
	res.set("unit_p85_ms", median(p85s), p85s)
	res.set("peak_rss_mb", peakRSSMiB(), nil)

	if w.accuracy && ref.churn != nil {
		res.Attempted++
		sur := w.shape
		sur.SurrogateTail = true
		cr, err := runChurn(sur, w.config(o.seed), nil)
		if err != nil {
			fail("surrogate rerun: %v", err)
		} else {
			res.set("surrogate_avail_err_pt", 100*math.Abs(ref.churn.Availability-cr.Availability), nil)
			res.set("surrogate_qos_err_per_k", math.Abs(float64(ref.churn.QoSViolations-cr.QoSViolations))/(ref.work/1000), nil)
		}
	}
	if !o.trace {
		return res
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		fail("CPU profile: %v", err)
		return res
	}
	t := time.Now()
	r := w.run(o.seed)
	traced := time.Since(t).Seconds()
	pprof.StopCPUProfile()
	check(r)
	res.set("traced_wall_s", traced, nil)
	res.set("trace_overhead_pct", 100*(traced/median(walls)-1), nil)
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		fail("%v", err)
	}
	for layer, s := range attribute(samples) {
		res.set("cpu."+layer+"_s", s, nil)
	}
	for _, f := range families {
		res.set("exp."+f+"_s", r.family[f], nil)
		res.set("exp."+f+"_units", float64(r.familyN[f]), nil)
	}
	logf("%s: traced run %.3f s", w.name, traced)

	if !w.grid {
		res.Attempted++
		rp, err := w.replay(o.seed)
		if err == nil && ref.churn != nil {
			err = w.checkReplay(rp, ref.churn)
		}
		if err != nil {
			fail("replay: %v", err)
		}
		res.set("fleet.replay.arrival_s", rp.arrival, nil)
		res.set("fleet.replay.depart_s", rp.depart, nil)
		res.set("fleet.replay.place_s", rp.place, nil)
		res.set("fleet.replay.offers", float64(rp.offers), nil)
		res.set("fleet.replay.rejects", float64(rp.rejects), nil)
		if rp.offers > 0 {
			res.set("fleet.replay.accept_ratio", 1-float64(rp.rejects)/float64(rp.offers), nil)
			res.set("fleet.replay.place_ns_per_offer", 1e9*rp.place/float64(rp.offers), nil)
		}
	}
	return res
}

// setupInChild times one set-up of w in a fresh process.
func setupInChild(w *workload, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// runAll measures every workload, each in its own process, one at a
// time, and prints their records together.
func runAll(o options, appendTo string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	var results []*workloadResult
	code := 0
	for _, w := range workloads() {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-runs", strconv.Itoa(o.runs),
			"-trace", trace, "-child")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
		last := len(lines) - 1
		for _, l := range lines[:last] {
			fmt.Println(l)
		}
		var res workloadResult
		if jerr := json.Unmarshal([]byte(lines[last]), &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v (child: %v)\n", w.name, jerr, err)
			code = 1
			continue
		}
		if err != nil {
			code = 1
		}
		results = append(results, &res)
	}
	rec := newRecord(o, results)
	if appendTo != "" {
		if err := appendRecord(appendTo, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	if err := printJSON(rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}

// printResult prints a workload's metrics as a table, with the output
// digest: equal digests at equal seeds mean every simulated statistic
// came out identical.
func printResult(r *workloadResult, traced bool) {
	fmt.Printf("== %s  seed %d  digest %s  attempted %d  failed %d\n",
		r.Workload, r.Seed, r.Digest, r.Attempted, r.Failed)
	for _, d := range metricDefs() {
		if !d.e2e && !traced {
			continue
		}
		m := r.Metrics[d.name]
		fmt.Printf("  %-34s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// peakRSSMiB is the process's peak resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		logf("peak RSS: %v", err)
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// record is one invocation, stamped so that appended history stays
// comparable between commits.
type record struct {
	Commit     string            `json:"commit"`
	Go         string            `json:"go"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	Runs       int               `json:"runs"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Time       string            `json:"time"`
	Workloads  []*workloadResult `json:"workloads"`
}

func newRecord(o options, results []*workloadResult) record {
	return record{
		Commit:     commitStamp(),
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       o.seed,
		Runs:       o.runs,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Time:       time.Now().UTC().Format(time.RFC3339),
		Workloads:  results,
	}
}

// commitStamp is the short HEAD commit, with "+dirty" when the work
// tree has changes, or "unknown" outside a git checkout.
func commitStamp() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	stamp := strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil || len(bytes.TrimSpace(status)) > 0 {
		stamp += "+dirty"
	}
	return stamp
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	return errors.Join(werr, f.Close())
}
