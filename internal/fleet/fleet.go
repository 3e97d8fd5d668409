// Package fleet models a multi-server consolidation scenario: N
// independent server machines, a stream of instance requests, and a
// placement policy that decides which machine each request lands on.
//
// The paper characterizes consolidation on one server (§5.2: how many
// instances a machine sustains before interactive RTT degrades); this
// package asks the next question — *where* to place workloads across a
// fleet for maximum performance. Like internal/exp, it is deliberately
// a leaf: it knows demand prediction, interference scoring and
// placement, but not how to build or run a simulated server. The
// assembly layer (internal/core.RunFleetConsolidation) lowers each
// machine's placed requests onto a core.Cluster and executes them, so
// fleet trials run on the same deterministic parallel runner as every
// other experiment.
package fleet

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"pictor/internal/app"
	"pictor/internal/sim"
)

// DefaultMachineCores matches the paper's testbed server (8-core
// i7-7820X); a fleet is N such machines unless the shape overrides it.
const DefaultMachineCores = 8

// DefaultOvercommit is the admission-control cap: a machine accepts
// requests until its predicted CPU demand exceeds Overcommit × cores.
// Cores timeshare, so moderate overcommit trades RTT for density —
// exactly the degradation the consolidation experiments measure. 1.5
// admits roughly the instance counts where §5.2 shows QoS starts to
// slip, so fleets exercise the interesting operating region.
const DefaultOvercommit = 1.5

// QoSMinFPS is the interactivity floor used for violation counts: the
// paper's co-location analysis (Figure 18) treats a benchmark below 25
// client FPS as no longer playable.
const QoSMinFPS = 25.0

// QoSMaxRTTMs is the migration controller's trigger: a machine whose
// measured (pooled) mean RTT from the previous epoch exceeds this is
// treated as violating the 25-FPS interactivity floor and becomes a
// migration source. Calibrated against the consolidation fixtures:
// machines hosting a sub-QoSMinFPS instance measure pooled mean RTTs
// of ~144 ms and above, while machines meeting QoS stay below ~120 ms.
const QoSMaxRTTMs = 140.0

// Machine is the placement-time view of one server: bookkeeping the
// policies read (what is placed, predicted demand), not the simulated
// hardware itself. The assembly layer pairs each Machine with a
// core.Cluster when the fleet is executed.
type Machine struct {
	// Index is the machine's position in the fleet (stable identity;
	// ties between equally-good machines break toward lower index).
	Index int
	// Cores is the machine's CPU capacity. The fleet's headroom index
	// reads it only when the machine's placements change, so set it
	// before placing: a later increase stays invisible to placement
	// until then (a decrease is safe — the exact Fits test still
	// applies).
	Cores float64
	// Placed holds the sessions resident on this machine, in admission
	// order. It is the one record of who runs where: every admission,
	// departure, eviction, tier change and migration edits it, and each
	// session's Variant is the profile it is served at.
	Placed []*Session
	// Demand is the summed predicted CPU demand of the residents'
	// variants.
	Demand float64
	// State is the machine's availability (fault injection): the
	// zero value MachineUp keeps every fault-free fleet byte-identical
	// to the pre-fault implementation.
	State MachineState
	// index is the fleet's headroom index, kept current on every
	// placement change (nil for a machine outside an indexed fleet).
	index *headroomIndex
	// gen counts the machine's placement changes, so a cache over its
	// residents (BinPack's cost memo) can tell when it went stale.
	gen uint64
}

// Fits reports whether adding demand d keeps the machine within its
// overcommitted capacity.
func (m *Machine) Fits(d, overcommit float64) bool {
	return m.Demand+d <= m.Cores*overcommit
}

// admits is the exact admission test: the machine is up and fits demand
// d. The headroom index only narrows down which machines to ask.
func (m *Machine) admits(d, overcommit float64) bool {
	return m.State == MachineUp && m.Fits(d, overcommit)
}

// place records a session on the machine. Demand is recomputed as the
// left-to-right sum over the placed list (identical to incremental
// accumulation for append-only admission), so release can reverse the
// bookkeeping exactly.
func (m *Machine) place(s *Session) {
	m.Placed = append(m.Placed, s)
	m.updateDemand()
}

// release removes the resident at slot i (reversing place). Demand is
// recomputed over the survivors in order, so releasing a session
// leaves Demand bit-identical to a history in which it was never
// placed — float subtraction would instead accumulate error and could
// drift negative on an empty machine.
func (m *Machine) release(i int) {
	m.Placed = append(m.Placed[:i], m.Placed[i+1:]...)
	m.updateDemand()
}

// updateDemand re-sums the residents' variant demands left to right —
// the same additions, in the same order, as summing PredictedCPUDemand
// over their profiles — advances the placement generation and
// refreshes the machine's headroom leaf. place and release end here,
// and so does a brown-out tier change (which swaps a resident's
// Variant in place), so it is the one point where a machine's load
// changes; a degrade followed by an upgrade restores Demand
// bit-identically.
func (m *Machine) updateDemand() {
	d := 0.0
	for _, s := range m.Placed {
		d += s.Variant.Demand
	}
	m.Demand = d
	m.gen++
	if m.index != nil {
		m.index.update(m)
	}
}

// Fleet is a set of machines plus the admission-control knobs.
type Fleet struct {
	Machines []*Machine
	// Overcommit caps each machine's predicted demand at Overcommit ×
	// cores; requests that fit nowhere are rejected.
	Overcommit float64
	// index is the headroom index over Machines, built on first use
	// (see headroom).
	index *headroomIndex
}

// headroom returns the fleet's headroom index, rebuilding it when the
// fleet's Overcommit or machine count differs from the one it was built
// for.
func (f *Fleet) headroom() *headroomIndex {
	if ix := f.index; ix == nil || ix.overcommit != f.Overcommit || ix.n != len(f.Machines) {
		f.index = newHeadroomIndex(f.Machines, f.Overcommit)
	}
	return f.index
}

// NewHetero builds a fleet of n machines whose core counts cycle
// through the given classes (machine i gets classes[i % len]); an empty
// class list selects DefaultMachineCores for every machine. This is the
// heterogeneous-fleet constructor: a class list like {8, 4} models a
// fleet of alternating big and small servers.
func NewHetero(n int, classes []float64) *Fleet {
	if n < 1 {
		n = 1
	}
	if len(classes) == 0 {
		classes = []float64{DefaultMachineCores}
	}
	f := &Fleet{Machines: make([]*Machine, n), Overcommit: DefaultOvercommit}
	for i := range f.Machines {
		f.Machines[i] = &Machine{Index: i, Cores: classes[i%len(classes)]}
	}
	return f
}

// ParseCoreClasses parses a comma-separated core-class list ("8,4,16")
// into per-machine core counts for NewHetero. Empty input is valid and
// means "every machine gets DefaultMachineCores".
func ParseCoreClasses(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: core classes %q: entry %d is not a number (want e.g. \"8,4\")", s, i+1)
		}
		// Core counts below 1 are rejected, not just non-positives: the
		// assembly layer rounds a machine's class to whole cluster cores,
		// and a fraction rounding to 0 would silently execute as the
		// 8-core default while placement believes the machine is tiny.
		// The test is written so that NaN fails it too.
		if !(v >= 1) {
			return nil, fmt.Errorf("fleet: core classes %q: entry %d must be a core count >= 1, got %g", s, i+1, v)
		}
		// A count too large to round to an int (+Inf included) would
		// overflow into the same 8-core fallback.
		if v >= math.MaxInt {
			return nil, fmt.Errorf("fleet: core classes %q: entry %d is too large to round to whole cores, got %g", s, i+1, v)
		}
		out[i] = v
	}
	return out, nil
}

// placeOne offers session s to the policy at its served variant and
// records the placement, returning the chosen machine's fleet index or
// -1 when no machine can (or the policy will) hold it. When the
// headroom index rules every machine out, the policy is not asked.
func (f *Fleet) placeOne(s *Session, p Placement) int {
	d := s.Variant.Demand
	if !f.headroom().mayFit(d) {
		return -1
	}
	mi := p.Pick(f, s.Variant, d)
	if mi < 0 {
		return -1
	}
	f.Machines[mi].place(s)
	return mi
}

// PredictedCPUDemand estimates the cores one instance of a profile will
// demand: the steady background threads of the engine and its VNC proxy
// plus the per-frame logic, IPC and encode work at the pipeline's
// nominal 60 FPS target. It is a placement heuristic — the simulation
// measures the truth — but it orders the suite correctly (D2's worker
// threads and STK's encode volume are the heavyweights, RE is the
// lightest), which is all a least-loaded or bin-packing policy needs.
// A Catalog evaluates it once per profile and tier; placement reads
// the variant's Demand.
func PredictedCPUDemand(p *app.Profile) float64 {
	const targetFPS = 60
	frameMB := float64(p.Width*p.Height) * 4 / 1e6 // raw RGBA readback
	perFrameMs := p.ALBaseMs + p.ASBaseMs + p.ASPerMBMs*frameMB + p.Codec.MsPerMB*frameMB
	return p.AppBackgroundCores + p.VNCBackgroundCores + targetFPS*perFrameMs/1000
}

// ---------------------------------------------------------------------------
// Request streams (arrival mixes)

// Mix names a deterministic arrival-stream generator.
type Mix string

const (
	// MixSuite cycles the Table-2 suite in paper order (seed-independent).
	MixSuite Mix = "suite"
	// MixShuffled draws uniformly from the suite with a seeded RNG.
	MixShuffled Mix = "shuffled"
	// MixHeavy draws from the suite weighted toward the heavy profiles
	// (Dota2's worker threads, SuperTuxKart's encode volume, InMind's
	// footprint), modelling a fleet dominated by demanding tenants.
	MixHeavy Mix = "heavy"
)

// Mixes lists the supported arrival mixes.
func Mixes() []Mix { return []Mix{MixSuite, MixShuffled, MixHeavy} }

// ValidateMix rejects a mix name Mixes does not list; the empty name
// is the suite mix.
func ValidateMix(mix Mix) error {
	switch mix {
	case MixSuite, "", MixShuffled, MixHeavy:
		return nil
	}
	return fmt.Errorf("fleet: unknown mix %q (have %v)", mix, Mixes())
}

// RequestStreamFrom generates n instance requests for the named mix,
// drawn from the given workload set (nil means the paper's six, keeping
// every pre-registry stream byte-identical). Each request is a
// full-fidelity handle into one catalog built over the set. The stream
// is a pure function of (suite, mix, n, seed), so fleet trials stay
// deterministic on the parallel runner. A non-positive n is an error —
// silently clamping it to 1 (the old behaviour) made "-requests 0"
// quietly run one request instead of failing loudly.
func RequestStreamFrom(suite []app.Profile, mix Mix, n int, seed int64) ([]*Variant, error) {
	if n < 1 {
		return nil, fmt.Errorf("fleet: request stream needs at least 1 request, got %d", n)
	}
	suite, draw, err := profileDrawer(suite, mix, seed)
	if err != nil {
		return nil, err
	}
	cat := NewCatalog(suite)
	out := make([]*Variant, n)
	for i := range out {
		out[i] = cat.Variant(draw(), 0)
	}
	return out, nil
}

// profileDrawer returns a deterministic profile generator for the named
// mix over the given workload set — the single source of arrival
// randomness shared by the one-shot RequestStreamFrom and the churn model's
// per-epoch arrivals. It returns the set it draws from (a nil suite
// draws from the paper's six) and a draw function yielding indices into
// it, which are the kinds of a catalog built over that set.
// The fork labels (and, over the default set, the random streams) match
// the original fixed-suite implementation exactly. The heavy mix weights
// each profile by its declared HeavyWeight (unset weights count as 1),
// so extended families slot into the mix without a baked-in table.
func profileDrawer(suite []app.Profile, mix Mix, seed int64) ([]app.Profile, func() int, error) {
	if len(suite) == 0 {
		suite = app.PaperSuite()
	}
	switch mix {
	case MixSuite, "":
		i := 0
		return suite, func() int {
			k := i % len(suite)
			i++
			return k
		}, nil
	case MixShuffled:
		rng := sim.NewRNG(seed).Fork("fleet/mix/shuffled")
		return suite, func() int {
			return rng.Intn(len(suite))
		}, nil
	case MixHeavy:
		weights := make([]int, len(suite))
		total := 0
		for i, p := range suite {
			w := p.HeavyWeight
			if w < 1 {
				w = 1
			}
			weights[i] = w
			total += w
		}
		rng := sim.NewRNG(seed).Fork("fleet/mix/heavy")
		return suite, func() int {
			r := rng.Intn(total)
			for j, w := range weights {
				if r < w {
					return j
				}
				r -= w
			}
			return len(suite) - 1 // unreachable: weights cover [0, total)
		}, nil
	}
	return nil, nil, ValidateMix(mix)
}
