// Package trace implements Pictor's performance analysis framework:
// unique input tags, the ten API hooks of Figure 4, per-stage latency
// accounting, FPS counters, and the tag header that stands for the
// frame's leading pixels and carries a tag across the application↔proxy
// IPC boundary (hook6→hook8).
//
// The framework is designed for low overhead: each hook charges a small
// fixed CPU cost to its caller when tracing is enabled and nothing when
// disabled, mirroring the paper's 2.7%-average FPS overhead result.
package trace

import (
	"fmt"
	"sort"

	"pictor/internal/sim"
	"pictor/internal/stats"
)

// Hook identifies one of the ten instrumentation points of Figure 4.
type Hook int

// The hooks, in input-processing order: 1 tags the input at the client
// proxy, 2–3 bracket the server proxy's input handling, 4 is the
// application receiving the input (XNextEvent), 5 is render start
// (glXSwapBuffers), 6 is frame readback (glReadPixels) where the tag is
// embedded in the frame, 7 is the IPC hand-off (XShmPutImage), 8 is the
// server proxy receiving the frame, 9 is send start, 10 matches the tag
// back at the client proxy.
const (
	Hook1 Hook = iota + 1
	Hook2
	Hook3
	Hook4
	Hook5
	Hook6
	Hook7
	Hook8
	Hook9
	Hook10
)

// Stage identifies one pipeline stage of Figure 5.
type Stage string

// The pipeline stages. CS: client sends input; SP: server proxy input
// processing; PS: proxy sends input to app (IPC); AL: application logic;
// RD: GPU render; FC: frame copy (GPU→CPU); AS: app sends frame to proxy
// (IPC); CP: proxy compresses; SS: server sends frame to client.
const (
	StageCS Stage = "CS"
	StageSP Stage = "SP"
	StagePS Stage = "PS"
	StageAL Stage = "AL"
	StageRD Stage = "RD"
	StageFC Stage = "FC"
	StageAS Stage = "AS"
	StageCP Stage = "CP"
	StageSS Stage = "SS"
)

// Stages lists all stages in pipeline order.
var Stages = []Stage{StageCS, StageSP, StagePS, StageAL, StageRD, StageFC, StageAS, StageCP, StageSS}

// The fixed-size stage storage in TagRecord and the stageIndex switch
// must stay in lockstep with Stages; drift would silently drop per-tag
// records, so it fails loudly at init instead.
func init() {
	if len(Stages) != numStages {
		panic("trace: Stages and TagRecord stage storage out of sync")
	}
	for i, s := range Stages {
		if stageIndex(s) != i {
			panic("trace: stageIndex out of sync with Stages for " + string(s))
		}
	}
}

// numStages is the size of TagRecord's per-stage storage.
const numStages = 9

// stageIndex maps a stage to its ordinal in Stages (-1 if unknown).
func stageIndex(s Stage) int {
	switch s {
	case StageCS:
		return 0
	case StageSP:
		return 1
	case StagePS:
		return 2
	case StageAL:
		return 3
	case StageRD:
		return 4
	case StageFC:
		return 5
	case StageAS:
		return 6
	case StageCP:
		return 7
	case StageSS:
		return 8
	}
	return -1
}

// HookCPUCost is the CPU time one enabled hook charges its caller.
const HookCPUCost = 18 * sim.Microsecond

// TagRecord accumulates everything observed about one tagged input.
// Hook timestamps and stage latencies live in fixed arrays with
// presence bits — the hook set and the stage set are static — so
// creating a record costs one allocation, not three (records are made
// per input on the measurement path).
type TagRecord struct {
	Tag      uint64
	Complete bool

	hooks   [Hook10 + 1]sim.Time
	hookSet uint16 // bit h set ⇔ hook h recorded

	stages   [numStages]sim.Duration
	stageSet uint16 // bit stageIndex(s) set ⇔ stage s recorded
}

// Hook reports the timestamp recorded for a hook crossing.
func (r *TagRecord) Hook(h Hook) (sim.Time, bool) {
	if h < Hook1 || h > Hook10 || r.hookSet&(1<<uint(h)) == 0 {
		return 0, false
	}
	return r.hooks[h], true
}

// Stage reports the latency recorded for a pipeline stage.
func (r *TagRecord) Stage(s Stage) (sim.Duration, bool) {
	i := stageIndex(s)
	if i < 0 || r.stageSet&(1<<uint(i)) == 0 {
		return 0, false
	}
	return r.stages[i], true
}

// Tracer is one instance's measurement context.
type Tracer struct {
	k       *sim.Kernel
	enabled bool
	nextTag uint64

	records map[uint64]*TagRecord
	order   []uint64

	stageSamples map[Stage]*stats.Sample
	rttSample    stats.Sample

	serverFrames      stats.Counter
	clientFrames      stats.Counter
	droppedAtCoalesce int64

	started  sim.Time
	sizeHint int
}

// New creates an enabled tracer.
func New(k *sim.Kernel) *Tracer {
	t := &Tracer{
		k:            k,
		enabled:      true,
		records:      make(map[uint64]*TagRecord),
		stageSamples: make(map[Stage]*stats.Sample),
		started:      k.Now(),
	}
	return t
}

// SetEnabled switches the analysis framework on or off (the paper's
// overhead experiment runs the suite both ways).
func (t *Tracer) SetEnabled(e bool) { t.enabled = e }

// SizeHint pre-sizes the RTT and stage samples for an expected number
// of observations (derived from the configured measurement window), so
// steady-state sampling never re-grows its backing arrays.
func (t *Tracer) SizeHint(n int) {
	if n <= 0 {
		return
	}
	t.sizeHint = n
	t.rttSample.Grow(n)
	for _, sm := range t.stageSamples {
		sm.Grow(n)
	}
}

// Enabled reports whether tracing is active.
func (t *Tracer) Enabled() bool { return t.enabled }

// HookCost reports the CPU cost callers must charge per hook crossing.
func (t *Tracer) HookCost() sim.Duration {
	if !t.enabled {
		return 0
	}
	return HookCPUCost
}

// NextTag allocates a fresh input tag (hook1). Returns 0 when disabled.
func (t *Tracer) NextTag() uint64 {
	if !t.enabled {
		return 0
	}
	t.nextTag++
	return t.nextTag
}

func (t *Tracer) record(tag uint64) *TagRecord {
	r, ok := t.records[tag]
	if !ok {
		r = &TagRecord{Tag: tag}
		t.records[tag] = r
		t.order = append(t.order, tag)
	}
	return r
}

// RecordHook timestamps a hook crossing for a tag. Hook10 completes the
// input's round trip and records its RTT.
func (t *Tracer) RecordHook(h Hook, tag uint64) {
	if !t.enabled || tag == 0 || h < Hook1 || h > Hook10 {
		return
	}
	r := t.record(tag)
	if r.hookSet&(1<<uint(h)) != 0 {
		return // e.g. a retransmitted frame; first observation wins
	}
	r.hookSet |= 1 << uint(h)
	r.hooks[h] = t.k.Now()
	if h == Hook10 {
		if t1, ok := r.Hook(Hook1); ok && !r.Complete {
			r.Complete = true
			t.rttSample.Add(t.k.Now().Sub(t1).Seconds() * 1e3) // ms
		}
	}
}

// RecordHookMulti timestamps a hook crossing for every tag in the list
// (frame-path hooks apply to all tags the frame answers).
func (t *Tracer) RecordHookMulti(h Hook, tags []uint64) {
	for _, tag := range tags {
		t.RecordHook(h, tag)
	}
}

// AddStage records a stage latency, attributed to the given tags (frame
// stages list every tag the frame answers) and to the aggregate stage
// distribution.
func (t *Tracer) AddStage(s Stage, d sim.Duration, tags ...uint64) {
	if !t.enabled {
		return
	}
	sm, ok := t.stageSamples[s]
	if !ok {
		sm = &stats.Sample{}
		sm.Grow(t.sizeHint)
		t.stageSamples[s] = sm
	}
	sm.Add(float64(d) / float64(sim.Millisecond))
	si := stageIndex(s)
	if si < 0 {
		return
	}
	for _, tag := range tags {
		if tag == 0 {
			continue
		}
		r := t.record(tag)
		if r.stageSet&(1<<uint(si)) == 0 {
			r.stageSet |= 1 << uint(si)
			r.stages[si] = d
		}
	}
}

// ServerFrameTick counts one frame produced at the server proxy.
func (t *Tracer) ServerFrameTick() { t.serverFrames.Tick(t.k.Now().Seconds()) }

// ClientFrameTick counts one frame displayed at the client proxy.
func (t *Tracer) ClientFrameTick() { t.clientFrames.Tick(t.k.Now().Seconds()) }

// FrameDropped counts a frame coalesced away at the server proxy.
func (t *Tracer) FrameDropped() { t.droppedAtCoalesce++ }

// ServerFPS reports frames/second generated at the server.
func (t *Tracer) ServerFPS() float64 { return t.serverFrames.Rate(t.k.Now().Seconds()) }

// ClientFPS reports frames/second received at the client.
func (t *Tracer) ClientFPS() float64 { return t.clientFrames.Rate(t.k.Now().Seconds()) }

// DroppedFrames reports frames coalesced at the proxy.
func (t *Tracer) DroppedFrames() int64 { return t.droppedAtCoalesce }

// ServerFrameCount reports total frames counted at the server proxy.
func (t *Tracer) ServerFrameCount() int64 { return t.serverFrames.Count() }

// ClientFrameCount reports total frames counted at the client proxy.
func (t *Tracer) ClientFrameCount() int64 { return t.clientFrames.Count() }

// RTTs returns the RTT sample (milliseconds).
func (t *Tracer) RTTs() *stats.Sample { return &t.rttSample }

// emptySample is the canonical empty sample returned for never-recorded
// stages. Shared and read-only by contract: StageSample callers only
// query. Returning it instead of allocating matters because result
// collection queries every stage of every instance, traced or not.
var emptySample = &stats.Sample{}

// StageSample returns the aggregate latency sample for a stage
// (milliseconds); a shared canonical empty sample if never recorded
// (read-only — do not Add to the returned sample).
func (t *Tracer) StageSample(s Stage) *stats.Sample {
	if sm, ok := t.stageSamples[s]; ok {
		return sm
	}
	return emptySample
}

// Records returns all tag records in tag order.
func (t *Tracer) Records() []*TagRecord {
	out := make([]*TagRecord, 0, len(t.order))
	for _, tag := range t.order {
		out = append(out, t.records[tag])
	}
	return out
}

// CompletedRTTCount reports how many inputs completed a round trip.
func (t *Tracer) CompletedRTTCount() int { return t.rttSample.N() }

// Reset clears all measurements, restarting at the current sim time
// (used to discard warmup). Maps and sample arrays are retained and
// cleared in place: the end-of-warmup reset must not hand the hot
// measurement window freshly shrunken buffers.
func (t *Tracer) Reset() {
	clear(t.records)
	t.order = t.order[:0]
	for _, sm := range t.stageSamples {
		sm.Reset()
	}
	t.rttSample.Reset()
	t.serverFrames = stats.Counter{}
	t.clientFrames = stats.Counter{}
	t.droppedAtCoalesce = 0
	t.started = t.k.Now()
}

// Summary formats the stage table for reports.
func (t *Tracer) Summary() string {
	out := fmt.Sprintf("RTT: %s\n", t.rttSample.Summarize())
	keys := make([]string, 0, len(t.stageSamples))
	for s := range t.stageSamples {
		keys = append(keys, string(s))
	}
	sort.Strings(keys)
	for _, k := range keys {
		out += fmt.Sprintf("%-3s: %s\n", k, t.stageSamples[Stage(k)].Summarize())
	}
	return out
}
