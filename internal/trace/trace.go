// Package trace implements Pictor's performance analysis framework:
// unique input tags, the ten API hooks of Figure 4, per-stage latency
// accounting, FPS counters, and the tag header that stands for the
// frame's leading pixels and carries a tag across the application↔proxy
// IPC boundary (hook6→hook8).
//
// The server-side hook sites (2–9) charge HookCPUCost to the process
// that crosses them when tracing is enabled and nothing when disabled,
// mirroring the paper's 2.7%-average FPS overhead result. The tracer
// stamps an input's issue time at hook 1 and completes its round trip
// at hook 10; stage latencies come from AddStage, so hooks 2–9 leave no
// timestamp. Hooks 6 and 8 write and read the tag header.
package trace

import (
	"fmt"

	"pictor/internal/sim"
	"pictor/internal/stats"
)

// Hook identifies one of the ten instrumentation points of Figure 4.
type Hook int

// The ten hooks, in input-processing order: 1 tags the input at the
// client proxy, 2–3 bracket the server proxy's input handling, 4 is the
// application receiving the input (XNextEvent), 5 is render start
// (glXSwapBuffers), 6 is frame readback (glReadPixels) where the tags
// are written into the frame's tag header, 7 is the IPC hand-off
// (XShmPutImage), 8 is the server proxy reading the header, 9 is send
// start, 10 matches the tag back at the client proxy. The tracer
// records hooks 1 and 10 only.
const (
	Hook1  Hook = 1
	Hook10 Hook = 10
)

// Stage identifies one pipeline stage of Figure 5 by its ordinal in
// pipeline order. Its text form is the stage's two-letter name, so a
// map keyed by Stage encodes to JSON with the names as keys.
type Stage uint8

// The pipeline stages, in pipeline order. CS: client sends input; SP:
// server proxy input processing; PS: proxy sends input to app (IPC);
// AL: application logic; RD: GPU render; FC: frame copy (GPU→CPU); AS:
// app sends frame to proxy (IPC); CP: proxy compresses; SS: server
// sends frame to client. NumStages counts them; range over it to visit
// every stage.
const (
	StageCS Stage = iota
	StageSP
	StagePS
	StageAL
	StageRD
	StageFC
	StageAS
	StageCP
	StageSS
	NumStages
)

var stageNames = [NumStages]string{"CS", "SP", "PS", "AL", "RD", "FC", "AS", "CP", "SS"}

// String reports the stage's name.
func (s Stage) String() string {
	if s >= NumStages {
		return fmt.Sprintf("Stage(%d)", uint8(s))
	}
	return stageNames[s]
}

// MarshalText encodes the stage as its name.
func (s Stage) MarshalText() ([]byte, error) {
	if s >= NumStages {
		return nil, fmt.Errorf("trace: no stage %d", uint8(s))
	}
	return []byte(stageNames[s]), nil
}

// UnmarshalText decodes a stage name written by MarshalText.
func (s *Stage) UnmarshalText(text []byte) error {
	for i, name := range stageNames {
		if string(text) == name {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown stage %q", text)
}

// HookCPUCost is the CPU time one enabled hook charges its caller.
const HookCPUCost = 18 * sim.Microsecond

// TagRecord holds what the tracer keeps about one tagged input: its
// hook-1 issue time and its stage latencies, the first observation of
// each. The latencies live in a fixed array with presence bits, so
// creating a record costs one allocation (records are made per input on
// the measurement path).
type TagRecord struct {
	Tag      uint64
	Complete bool

	issuedAt sim.Time
	issued   bool

	stages   [NumStages]sim.Duration
	stageSet uint16 // bit s set ⇔ stage s recorded
}

// Issued reports the input's hook-1 issue time, if the tracer saw it.
func (r *TagRecord) Issued() (sim.Time, bool) { return r.issuedAt, r.issued }

// Stage reports the latency recorded for a pipeline stage.
func (r *TagRecord) Stage(s Stage) (sim.Duration, bool) {
	if s >= NumStages || r.stageSet&(1<<s) == 0 {
		return 0, false
	}
	return r.stages[s], true
}

// Tracer is one instance's measurement context.
type Tracer struct {
	k       *sim.Kernel
	enabled bool
	nextTag uint64

	records map[uint64]*TagRecord
	order   []uint64

	stageSamples [NumStages]stats.Sample
	rttSample    stats.Sample

	serverFrames      stats.Counter
	clientFrames      stats.Counter
	droppedAtCoalesce int64
}

// New creates an enabled tracer.
func New(k *sim.Kernel) *Tracer {
	return &Tracer{k: k, enabled: true, records: make(map[uint64]*TagRecord)}
}

// SetEnabled switches the analysis framework on or off (the paper's
// overhead experiment runs the suite both ways).
func (t *Tracer) SetEnabled(e bool) { t.enabled = e }

// SizeHint pre-sizes the frame-path stage samples (AL through SS) for
// an expected number of observations (one per frame, derived from the
// configured window), so steady-state sampling never re-grows their
// backing arrays; Reset keeps the capacity. The input-path samples (CS,
// SP, PS and the RTT) record one observation per input, a small
// fraction of the frame rate, so they grow by append. A disabled tracer
// records nothing, so it sizes nothing.
func (t *Tracer) SizeHint(n int) {
	if !t.enabled || n <= 0 {
		return
	}
	for s := StageAL; s < NumStages; s++ {
		t.stageSamples[s].Grow(n)
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

// RecordHook records a hook crossing for a tag: Hook1 stamps the
// input's issue time, and Hook10 completes its round trip and records
// its RTT. The first observation wins (e.g. over a retransmitted frame).
// Other hooks record nothing.
func (t *Tracer) RecordHook(h Hook, tag uint64) {
	if !t.enabled || tag == 0 {
		return
	}
	switch h {
	case Hook1:
		if r := t.record(tag); !r.issued {
			r.issuedAt, r.issued = t.k.Now(), true
		}
	case Hook10:
		if r := t.record(tag); r.issued && !r.Complete {
			r.Complete = true
			t.rttSample.Add(t.k.Now().Sub(r.issuedAt).Seconds() * 1e3) // ms
		}
	}
}

// RecordHookMulti records a hook crossing for every tag in the list
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
	t.stageSamples[s].Add(float64(d) / float64(sim.Millisecond))
	for _, tag := range tags {
		if tag == 0 {
			continue
		}
		r := t.record(tag)
		if r.stageSet&(1<<s) == 0 {
			r.stageSet |= 1 << s
			r.stages[s] = d
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

// StageSample returns the aggregate latency sample for a stage
// (milliseconds).
func (t *Tracer) StageSample(s Stage) *stats.Sample { return &t.stageSamples[s] }

// Records returns all tag records in the order their tags were first
// observed: issued at hook 1, or, for an input issued before a Reset,
// first seen after it.
func (t *Tracer) Records() []*TagRecord {
	out := make([]*TagRecord, 0, len(t.order))
	for _, tag := range t.order {
		out = append(out, t.records[tag])
	}
	return out
}

// CompletedRTTCount reports how many inputs completed a round trip.
func (t *Tracer) CompletedRTTCount() int { return t.rttSample.N() }

// Reset clears all measurements (used to discard warmup). The record
// map and sample arrays are retained and cleared in place: the
// end-of-warmup reset must not hand the hot measurement window freshly
// shrunken buffers.
func (t *Tracer) Reset() {
	clear(t.records)
	t.order = t.order[:0]
	for s := range t.stageSamples {
		t.stageSamples[s].Reset()
	}
	t.rttSample.Reset()
	t.serverFrames = stats.Counter{}
	t.clientFrames = stats.Counter{}
	t.droppedAtCoalesce = 0
}
