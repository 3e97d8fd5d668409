package exp

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"pictor/internal/app"
	"pictor/internal/stats"
	"pictor/internal/vgl"
)

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(1, "trial-key", 0)
	for i := 0; i < 100; i++ {
		if got := DeriveSeed(1, "trial-key", 0); got != a {
			t.Fatalf("DeriveSeed not stable: %d vs %d", got, a)
		}
	}
	if DeriveSeed(2, "trial-key", 0) == a {
		t.Fatal("base seed does not influence derived seed")
	}
	if DeriveSeed(1, "other-key", 0) == a {
		t.Fatal("trial key does not influence derived seed")
	}
	if DeriveSeed(1, "trial-key", 1) == a {
		t.Fatal("repetition does not influence derived seed")
	}
}

// TestDeriveSeedCollisionFree derives a seed for every (trial, rep)
// unit of a full-suite grid — every benchmark × driver × instance
// count × rep — and requires them all distinct.
func TestDeriveSeedCollisionFree(t *testing.T) {
	seen := map[int64]string{}
	checked := 0
	suite := app.Suite() // the full registry: new families' keys count too
	for _, prof := range suite {
		for _, d := range []DriverKind{DriverHuman, DriverIC, DriverDeskBench, DriverSlowMotion} {
			for n := 1; n <= 4; n++ {
				tr := Homogeneous(prof, d, n)
				tr.Warmup, tr.Measure = 3, 60
				for rep := 0; rep < 5; rep++ {
					s := DeriveSeed(1, tr.Key(), rep)
					id := fmt.Sprintf("%s/%s/n=%d/rep=%d", prof.Name, d, n, rep)
					if prev, dup := seen[s]; dup {
						t.Fatalf("seed collision: %s and %s both derive %d", prev, id, s)
					}
					seen[s] = id
					checked++
				}
			}
		}
	}
	if checked != len(suite)*4*4*5 {
		t.Fatalf("grid expansion wrong: checked %d units", checked)
	}
}

// fullSuiteGrid assembles a trial set shaped like the complete
// evaluation: every benchmark × driver × co-location count, the
// unordered pairs, the container/tracing/interposer variants and the
// fleet shapes — the key space a real grid exercises.
func fullSuiteGrid() []Trial {
	var trials []Trial
	add := func(t Trial) {
		t.Warmup, t.Measure = 3, 60
		trials = append(trials, t)
	}
	suite := app.Suite()
	for _, prof := range suite {
		for _, d := range []DriverKind{DriverHuman, DriverIC, DriverDeskBench, DriverSlowMotion} {
			for n := 1; n <= 4; n++ {
				add(Homogeneous(prof, d, n))
			}
		}
		containerized := Single(prof, DriverHuman)
		containerized.Instances[0].Containerized = true
		add(containerized)
		tracingOff := Single(prof, DriverHuman)
		tracingOff.Instances[0].TracingOff = true
		add(tracingOff)
		optimized := Single(prof, DriverHuman)
		optimized.Instances[0].Interposer = vgl.Optimized()
		add(optimized)
	}
	for i := 0; i < len(suite); i++ {
		for j := i + 1; j < len(suite); j++ {
			add(Pair(suite[i], suite[j]))
		}
	}
	for _, pol := range []string{"roundrobin", "leastcount", "leastdemand", "binpack"} {
		add(FleetTrial(FleetShape{Machines: 4, Policy: pol, Mix: "shuffled", Requests: 12}))
	}
	return trials
}

// TestSeedDerivationPropertyFullGrid is the property test for the
// runner's seed derivation: over the full suite grid × 32 repetitions,
// (1) distinct (trial key, rep) pairs never derive colliding seeds, and
// (2) a trial's per-rep seeds are a function of its key alone —
// permuting the grid order leaves every trial's seeds unchanged.
func TestSeedDerivationPropertyFullGrid(t *testing.T) {
	const reps = 32
	trials := fullSuiteGrid()

	keys := map[string]bool{}
	for _, tr := range trials {
		keys[tr.Key()] = true
	}
	if len(keys) != len(trials) {
		t.Fatalf("grid keys collide: %d trials, %d distinct keys", len(trials), len(keys))
	}

	seen := map[int64]string{}
	seedsOf := func(tr Trial) [reps]int64 {
		var out [reps]int64
		for r := 0; r < reps; r++ {
			out[r] = UnitSeed(tr, r, 1)
		}
		return out
	}
	forward := map[string][reps]int64{}
	for _, tr := range trials {
		ss := seedsOf(tr)
		forward[tr.Key()] = ss
		for r, s := range ss {
			id := fmt.Sprintf("%s rep=%d", tr.Key(), r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision over %d units:\n  %s\n  %s\nboth derive %d",
					len(trials)*reps, prev, id, s)
			}
			seen[s] = id
		}
	}

	// Reverse the grid and re-derive through the runner itself: every
	// trial must get exactly the seeds it got in forward order.
	reversed := make([]Trial, len(trials))
	for i, tr := range trials {
		reversed[len(trials)-1-i] = tr
	}
	out, _ := RunChecked(reversed, func(tr Trial, u Unit) int64 { return u.Seed }, RunOptions{Parallel: 4, Reps: reps, BaseSeed: 1})
	for i, tr := range reversed {
		want := forward[tr.Key()]
		for r := 0; r < reps; r++ {
			if out[i][r] != want[r] {
				t.Fatalf("trial %q rep %d: seed %d after permutation, %d before",
					tr.ID, r, out[i][r], want[r])
			}
		}
	}
}

func TestUnitSeedPinsFirstRep(t *testing.T) {
	tr := Single(app.STK(), DriverHuman)
	tr.Seed = 42
	if got := UnitSeed(tr, 0, 1); got != 42 {
		t.Fatalf("rep 0 of a pinned trial must use the pinned seed, got %d", got)
	}
	if got := UnitSeed(tr, 1, 1); got == 42 {
		t.Fatal("rep 1 must derive a fresh seed")
	}
	// Derivation for later reps keys off the trial's own seed, not the
	// grid base, so a pinned trial is self-contained.
	if UnitSeed(tr, 1, 1) != UnitSeed(tr, 1, 99) {
		t.Fatal("pinned trial's later reps must not depend on the grid base seed")
	}
}

func TestTrialKeyDistinguishesSpecs(t *testing.T) {
	base := Single(app.STK(), DriverHuman)
	variants := []Trial{
		Single(app.STK(), DriverIC),
		Single(app.RE(), DriverHuman),
		Homogeneous(app.STK(), DriverHuman, 2),
		Pair(app.STK(), app.RE()),
	}
	tracingOff := Single(app.STK(), DriverHuman)
	tracingOff.Instances[0].TracingOff = true
	variants = append(variants, tracingOff)
	containerized := Single(app.STK(), DriverHuman)
	containerized.Instances[0].Containerized = true
	variants = append(variants, containerized)
	longer := Single(app.STK(), DriverHuman)
	longer.Measure = 120
	variants = append(variants, longer)

	keys := map[string]bool{base.Key(): true}
	for i, v := range variants {
		k := v.Key()
		if keys[k] {
			t.Fatalf("variant %d has a non-unique key %q", i, k)
		}
		keys[k] = true
	}
	if base.Key() != Single(app.STK(), DriverHuman).Key() {
		t.Fatal("identical specs must have identical keys")
	}
}

// TestFleetShapeProfilesKeyStability: the workload subset serializes
// into the key only when set, so every pre-registry fleet shape keeps
// its exact historical key — and therefore its derived seeds, streams
// and golden fixtures.
func TestFleetShapeProfilesKeyStability(t *testing.T) {
	tr := FleetTrial(FleetShape{Machines: 3, Policy: "binpack", Mix: "shuffled", Requests: 8})
	tr.Warmup, tr.Measure = 1, 5
	const legacy = "w=1;m=5;s=0|fleet:n=3:pol=binpack:mix=shuffled:req=8:cores=0"
	if got := tr.Key(); got != legacy {
		t.Fatalf("pre-registry fleet key changed:\n got %q\nwant %q", got, legacy)
	}
	withProfiles := tr
	shape := *tr.Fleet
	shape.Profiles = "STK,CAD,VV"
	withProfiles.Fleet = &shape
	if got := withProfiles.Key(); got != legacy+":profiles=STK,CAD,VV" {
		t.Fatalf("subset key = %q, want the legacy key plus :profiles=...", got)
	}
	// Churn shapes order profiles before the churn block consistently.
	churn := shape
	churn.Epochs, churn.ArrivalRate, churn.MeanSessionEpochs = 4, 2, 3
	churnTrial := withProfiles
	churnTrial.Fleet = &churn
	if got := churnTrial.Key(); got == withProfiles.Key() {
		t.Fatalf("churn fields must still distinguish keys, got %q", got)
	}
}

// TestRunOrderedAndComplete runs a grid on several workers and checks
// every unit executed exactly once, with results landing at the right
// [trial][rep] index and with the documented seeds.
func TestRunOrderedAndComplete(t *testing.T) {
	trials := make([]Trial, 7)
	for i := range trials {
		trials[i] = Single(app.STK(), DriverHuman)
		trials[i].Measure = float64(i + 1) // distinct keys
	}
	opts := RunOptions{Parallel: 4, Reps: 3, BaseSeed: 9}
	var calls atomic.Int64
	type res struct {
		TrialIndex, Rep int
		Seed            int64
	}
	out, errs := RunChecked(trials, func(tr Trial, u Unit) res {
		calls.Add(1)
		return res{u.TrialIndex, u.Rep, u.Seed}
	}, opts)
	if len(errs) != 0 {
		t.Fatalf("no unit panicked, got %v", errs)
	}
	if got := calls.Load(); got != int64(len(trials)*3) {
		t.Fatalf("executed %d units, want %d", got, len(trials)*3)
	}
	for ti := range trials {
		for rep := 0; rep < 3; rep++ {
			got := out[ti][rep]
			want := res{ti, rep, UnitSeed(trials[ti], rep, 9)}
			if got != want {
				t.Fatalf("out[%d][%d] = %+v, want %+v", ti, rep, got, want)
			}
		}
	}
}

// TestRunParallelismInvariant: the collected result grid must be
// identical at parallel 1 and parallel 8.
func TestRunParallelismInvariant(t *testing.T) {
	trials := []Trial{
		Single(app.STK(), DriverHuman),
		Homogeneous(app.RE(), DriverHuman, 3),
		Pair(app.STK(), app.RE()),
	}
	exec := func(tr Trial, u Unit) string {
		return fmt.Sprintf("%s@%d", tr.Key(), u.Seed)
	}
	seq, _ := RunChecked(trials, exec, RunOptions{Parallel: 1, Reps: 4, BaseSeed: 3})
	par, _ := RunChecked(trials, exec, RunOptions{Parallel: 8, Reps: 4, BaseSeed: 3})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel run diverged:\nseq: %v\npar: %v", seq, par)
	}
}

func TestPoolSummaries(t *testing.T) {
	a := stats.Summary{N: 10, Mean: 5, P1: 1, P25: 2, P75: 8, P99: 9}
	b := stats.Summary{N: 30, Mean: 7, P1: 3, P25: 4, P75: 10, P99: 11}
	got := PoolSummaries([]stats.Summary{a, b})
	if got.N != 40 || got.Mean != 6 || got.P1 != 2 || got.P99 != 10 {
		t.Fatalf("pooled = %+v", got)
	}
	if one := PoolSummaries([]stats.Summary{a}); one != a {
		t.Fatal("pooling one summary must be the identity")
	}
}

func TestCanonicalInterposer(t *testing.T) {
	if got := CanonicalInterposer(vgl.Options{}); got != vgl.DefaultOptions() {
		t.Fatalf("zero options must resolve to the baseline default, got %+v", got)
	}
	// Partially-set options (flags without cost parameters) must
	// inherit the baseline's copy costs, not run with free copies.
	partial := CanonicalInterposer(vgl.Options{MemoizeAttributes: true})
	def := vgl.DefaultOptions()
	if partial.MemcpyMsPerMB != def.MemcpyMsPerMB || partial.ReadDriverMs != def.ReadDriverMs {
		t.Fatalf("partial options lost the cost model: %+v", partial)
	}
	if !partial.MemoizeAttributes || partial.AsyncCopy {
		t.Fatalf("partial options lost their flags: %+v", partial)
	}
	// QueryDoubleBuffer is taken literally on nonzero input.
	if partial.QueryDoubleBuffer {
		t.Fatal("bool fields must not be defaulted on a nonzero struct")
	}
	// Explicitly-set costs pass through untouched.
	custom := vgl.DefaultOptions()
	custom.MemcpyMsPerMB = 0.9
	if got := CanonicalInterposer(custom); got != custom {
		t.Fatalf("explicit options were rewritten: %+v", got)
	}
}
