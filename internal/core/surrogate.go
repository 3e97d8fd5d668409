package core

import (
	"fmt"
	"sync"

	"pictor/internal/app"
	"pictor/internal/exp"
	"pictor/internal/fleet"
	"pictor/internal/hw/power"
	"pictor/internal/sim"
	"pictor/internal/stats"
)

// The surrogate session engine: instead of running a per-frame
// simulated cluster for every machine-epoch, it evaluates per-profile
// response curves calibrated once per process from short full-fidelity
// runs — the cheap-proxy-tracks-expensive-run pattern. A curve maps a
// machine's relative load (predicted CPU demand / cores) to the RTT
// distribution, client FPS and utilization one resident of the profile
// measures at that load, interpolating between calibration points and
// extrapolating linearly beyond the deepest co-location measured.
// Per-session determinism comes from the same splitmix64 derivation
// the full engine uses: a session's epoch jitter is seeded from
// (stream base, session ID, epoch, rep), so surrogate results are
// byte-identical at any parallelism level and across reruns —
// and independent of which machines happen to share the epoch.

// surrogateSeed fixes the calibration runs (like interferenceSeed), so
// the curves — and everything predicted from them — are identical in
// every process regardless of caller configuration.
const surrogateSeed = 0x5EEDFACE

// surrogateColoDepth is how many homogeneous co-location levels are
// calibrated per profile (n = 1..depth on the paper's 8-core testbed).
// Four covers the paper's consolidation sweep; loads beyond it
// extrapolate.
const surrogateColoDepth = 4

// surrogateJitterSigma is the per-(session, epoch) lognormal spread
// applied to the interpolated curves, approximating the run-to-run
// noise of the full simulator.
const surrogateJitterSigma = 0.05

// surrogateCurve is one profile's calibrated response: parallel slices
// indexed by calibration point, load ascending.
type surrogateCurve struct {
	load []float64       // machine load fraction (demand / cores)
	rtt  []stats.Summary // pooled per-instance RTT at that load
	fps  []float64       // mean client FPS
	cpu  []float64       // mean per-instance CPU util (app+vnc), top-style %
	gpu  []float64       // mean per-instance GPU util, %
}

// surrogateTable maps profile name → calibrated curve.
type surrogateTable map[string]surrogateCurve

// surrogateCache memoizes calibrated tables per suite fingerprint,
// exactly like interferenceCache: entries hold a sync.Once so
// concurrent trials over the same workload set calibrate once.
type surrogateEntry struct {
	once  sync.Once
	table surrogateTable
}

var surrogateCache sync.Map // fingerprint string → *surrogateEntry

// surrogateTableFor calibrates (or returns the cached) response curves
// for the workload set: for each profile, n = 1..surrogateColoDepth
// identical human-driven instances on one default machine with short
// fixed-seed windows — the §5.2 consolidation sweep, reduced to a
// response curve. Trial keys depend only on the profile and n, so a
// profile shared by two fingerprints calibrates identically in both.
func surrogateTableFor(suite []app.Profile) surrogateTable {
	e, _ := surrogateCache.LoadOrStore(suiteFingerprint(suite), &surrogateEntry{})
	entry := e.(*surrogateEntry)
	entry.once.Do(func() {
		cfg := ExperimentConfig{WarmupSeconds: 1, Seconds: 5, Seed: surrogateSeed, Parallel: 1}
		trials := make([]exp.Trial, 0, len(suite)*surrogateColoDepth)
		for _, p := range suite {
			for n := 1; n <= surrogateColoDepth; n++ {
				trials = append(trials, characterizationTrial(p, n, exp.DriverHuman, cfg))
			}
		}
		res := RunTrials(trials, cfg)
		table := make(surrogateTable, len(suite))
		ti := 0
		for _, p := range suite {
			demand := fleet.PredictedCPUDemand(&p)
			cv := surrogateCurve{}
			for n := 1; n <= surrogateColoDepth; n++ {
				rs := res[ti][0].Results
				ti++
				var rtts []stats.Summary
				var fps, cpu, gpu float64
				for _, r := range rs {
					if r.RTT.N > 0 {
						rtts = append(rtts, r.RTT)
					}
					fps += r.ClientFPS
					cpu += r.AppCPUUtil + r.VNCCPUUtil
					gpu += r.GPUUtil
				}
				inv := 1 / float64(len(rs))
				cv.load = append(cv.load, float64(n)*demand/fleet.DefaultMachineCores)
				cv.rtt = append(cv.rtt, exp.PoolSummaries(rtts))
				cv.fps = append(cv.fps, fps*inv)
				cv.cpu = append(cv.cpu, cpu*inv)
				cv.gpu = append(cv.gpu, gpu*inv)
			}
			table[p.Name] = cv
		}
		entry.table = table
	})
	return entry.table
}

// at evaluates kind k's curve at machine load L: clamped to the first
// calibration point below it (an underloaded machine serves at least
// as well as the lightest measured), interpolated between bracketing
// points, and extrapolated linearly beyond the deepest one (RTT keeps
// growing with load; FPS keeps falling, floored at 1).
func (se *surrogateEngine) at(k int, L float64) (rtt stats.Summary, fps, cpu, gpu float64) {
	cv := &se.curves[k]
	pts := cv.load
	i := len(pts) - 1
	for j := 1; j < len(pts); j++ {
		if L <= pts[j] {
			i = j
			break
		}
	}
	if L < pts[0] {
		L = pts[0]
	}
	f := (L - pts[i-1]) / (pts[i] - pts[i-1])
	lerp := func(a, b float64) float64 { return a + f*(b-a) }
	a, b := cv.rtt[i-1], cv.rtt[i]
	rtt = stats.Summary{
		Mean: lerp(a.Mean, b.Mean),
		P1:   lerp(a.P1, b.P1),
		P25:  lerp(a.P25, b.P25),
		P75:  lerp(a.P75, b.P75),
		P99:  lerp(a.P99, b.P99),
	}
	fps = lerp(cv.fps[i-1], cv.fps[i])
	cpu = lerp(cv.cpu[i-1], cv.cpu[i])
	gpu = lerp(cv.gpu[i-1], cv.gpu[i])
	// Extrapolation guards: far beyond the calibrated range the linear
	// trend could cross zero — a saturated machine serves slowly, it
	// does not serve negative frames.
	if fps < 1 {
		fps = 1
	}
	if cpu < 0 {
		cpu = 0
	}
	if gpu < 0 {
		gpu = 0
	}
	for _, q := range []*float64{&rtt.Mean, &rtt.P1, &rtt.P25, &rtt.P75, &rtt.P99} {
		if *q < 0.1 {
			*q = 0.1
		}
	}
	return rtt, fps, cpu, gpu
}

// surrogateKey prefixes each session-epoch's jitter seed key,
// "fleet/surrogate/s<id>/e<epoch>".
var surrogateKey = exp.NewSeedKey("fleet/surrogate/s")

// surrogateEngine is the cheap fidelity tier: a SessionEngine backed
// by the calibrated curves, looked up by name once and then indexed by
// the kinds of the trial's fleet.Catalog. Degraded (brown-out)
// residents are served through their full-resolution curve (their
// kind's) at the machine's reduced load — the tier's demand relief is
// modelled, the per-session resolution change is approximated; the
// fidelity-error fixture pins how closely the whole tier tracks full
// simulation.
type surrogateEngine struct {
	p      *churnPortal
	curves []surrogateCurve // by catalog kind
	model  power.Model
	// batch caches one curve evaluation per kind within a single
	// AdvanceEpoch call (an entry stamped with an older call is stale):
	// the machine's load is fixed for the epoch, so every resident of a
	// profile shares the same interpolated point and only the
	// per-session jitter differs. The epoch loop executes one trial's
	// machines sequentially, so the scratch never races.
	batch []surrogateEval
	call  uint64
	// sessions backs every MachineEpoch.Sessions this engine returns;
	// the portal folds it in Collect before the next AdvanceEpoch.
	sessions []SessionObs
}

// surrogateEval is one interpolated curve point — the (profile,
// machine-load) evaluation shared by every resident of the profile on
// the machine this epoch, before per-session jitter.
type surrogateEval struct {
	rtt           stats.Summary
	fps, cpu, gpu float64
	call          uint64
}

// newSurrogateEngine calibrates (or reuses) the response curves for
// the trial's workload set, laid out by the kinds of cat.
func newSurrogateEngine(p *churnPortal, suite []app.Profile, cat *fleet.Catalog) *surrogateEngine {
	table := surrogateTableFor(suite)
	se := &surrogateEngine{p: p, model: power.Default(), batch: make([]surrogateEval, cat.Kinds())}
	for k := range se.batch {
		name := cat.Variant(k, 0).Profile.Name
		cv, ok := table[name]
		if !ok {
			panic(fmt.Sprintf("core: surrogate has no calibrated curve for profile %q (trial %q)", name, p.t.ID))
		}
		se.curves = append(se.curves, cv)
	}
	return se
}

// AdvanceEpoch predicts machine mi's epoch from the curves: every
// resident is evaluated at the machine's relative load (computed once
// per profile — residents of a profile share the interpolated point
// bit-for-bit, so batching cannot move a result), perturbed by
// its deterministic per-(session, epoch, rep) lognormal jitter, and
// the machine's power is modelled from the summed predicted
// utilizations (capped at physical capacity, like the full engine's
// wall meter) — idle machines burn exactly the idle floor.
func (se *surrogateEngine) AdvanceEpoch(e, mi int) MachineEpoch {
	p := se.p
	m := p.f.Machines[mi]
	L := 0.0
	if m.Cores > 0 {
		L = m.Demand / m.Cores
	}
	me := MachineEpoch{
		Demand:   m.Demand,
		Sessions: se.sessions[:0],
	}
	se.call++
	var cpu, gpu float64
	for _, s := range m.Placed {
		ev := &se.batch[s.Variant.Kind]
		if ev.call != se.call {
			ev.rtt, ev.fps, ev.cpu, ev.gpu = se.at(s.Variant.Kind, L)
			ev.call = se.call
		}
		rtt, fps, c1, g1 := ev.rtt, ev.fps, ev.cpu, ev.gpu
		// One lognormal draw per (session, epoch, rep) seed; FirstLogNormal
		// yields the seeded RNG's exact value without the O(607) seeding
		// cost that dominated million-session sweeps.
		seed := surrogateKey.Int(s.ID).Str("/e").Int(e).Seed(p.streamBase, p.u.Rep)
		j := sim.FirstLogNormal(seed, 1, surrogateJitterSigma)
		rtt.Mean *= j
		rtt.P1 *= j
		rtt.P25 *= j
		rtt.P75 *= j
		rtt.P99 *= j
		fps /= j
		// One observation per served frame over the measurement window,
		// matching the full engine's sample counts so pooled summaries
		// weight surrogate sessions comparably.
		rtt.N = int(fps*p.t.Measure + 0.5)
		if rtt.N < 1 {
			rtt.N = 1
		}
		me.Sessions = append(me.Sessions, SessionObs{
			RTT:          rtt,
			QoSViolation: fps < fleet.QoSMinFPS,
		})
		cpu += c1
		gpu += g1
	}
	if maxUtil := m.Cores * 100; cpu > maxUtil {
		cpu = maxUtil
	}
	me.PowerWatts = se.model.TotalWatts(cpu, gpu, len(m.Placed))
	se.sessions = me.Sessions
	return me
}
