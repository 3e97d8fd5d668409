package agent

import "pictor/internal/scene"

// BatchModels runs inference for many concurrent sessions against one
// shared set of weights, one row per session. All sessions on a machine
// share the layer weights and batch scratch; each session owns its LSTM
// state rows, the only recurrent state inference has, and small I/O
// buffers.
//
// Detection is batched lazily: sessions submit frames as they arrive
// (SubmitFrame copies the pixels and queues the session), and the CNN
// runs when the first session demands its result (Detected), sweeping
// every queued session through Models.recognize, flushChunk frames per
// pass. Because the simulated CV latency is far longer than the
// inter-arrival gap of frames across sessions, the queue holds most of
// the machine's sessions by the time the earliest demand fires, so the
// batch converges to machine occupancy — with no new simulator events
// and no timing changes. Each row's math is bit-identical to
// Models.Detect on that frame alone (same summation order per output
// element), so the batch a frame lands in changes no result.
//
// BatchModels is not goroutine-safe; one instance serves one
// deterministic simulation (e.g. one cluster).
type BatchModels struct {
	m *Models // a private clone of the trained models

	queue  []*BatchSession // sessions with a pending frame
	frames [][]float64     // one flush chunk's rasters
	dets   []scene.Type    // one flush chunk's recognitions
	feat   []float64       // one LSTM step's features
}

// BatchSession is one client's handle into a BatchModels: its LSTM
// state rows plus frame/result buffers.
type BatchSession struct {
	bm       *BatchModels
	pixels   []float64 // latest submitted frame raster
	detected []scene.Type
	pending  bool
	h, c     []float64 // LSTM recurrent state rows
}

// NewBatchModels builds a batch runner from trained models. The source
// is cloned once — the caller's networks are never mutated — and every
// session created afterwards shares that one copy's weights.
func NewBatchModels(src *Models) *BatchModels {
	return &BatchModels{
		m:      src.Clone(),
		frames: make([][]float64, 0, flushChunk),
		dets:   make([]scene.Type, flushChunk*cells),
		feat:   make([]float64, FeatureSize),
	}
}

// NewSession adds a session (one simulated client) and returns its
// handle. Sessions may be added mid-run; they start with cleared
// recurrent state.
func (bm *BatchModels) NewSession() *BatchSession {
	return &BatchSession{
		bm:       bm,
		pixels:   make([]float64, scene.FrameW*scene.FrameH),
		detected: make([]scene.Type, scene.GridW*scene.GridH),
		h:        make([]float64, lstmHidden),
		c:        make([]float64, lstmHidden),
	}
}

// ResetState clears the session's LSTM recurrent state.
func (s *BatchSession) ResetState() {
	for i := range s.h {
		s.h[i] = 0
		s.c[i] = 0
	}
}

// SubmitFrame copies the frame raster and queues the session for the
// next batched detection pass. Submitting again before the pass runs
// replaces the pending frame (the client always works on the most
// recent state).
func (s *BatchSession) SubmitFrame(pixels []float64) {
	copy(s.pixels, pixels)
	if !s.pending {
		s.pending = true
		s.bm.queue = append(s.bm.queue, s)
	}
}

// Detected returns the session's per-cell recognitions, running the
// batched CNN over every queued session first if this session's result
// is still pending. The returned slice is session-owned scratch,
// overwritten by the session's next detection; copy it to retain it.
func (s *BatchSession) Detected() []scene.Type {
	if s.pending {
		s.bm.flush()
	}
	return s.detected
}

// flushChunk caps how many frames one CNN pass spans. Chunking keeps
// the pass's patch and activation buffers cache-resident between layers:
// one unbounded pass over a large fleet streams multi-megabyte arrays
// through every layer and goes DRAM-bound (measured ~60% slower per
// session at 32 sessions than at 8). Each row's math is independent,
// so chunking changes nothing but locality.
const flushChunk = 8

// flush runs the batched CNN over all queued sessions in chunks of up
// to flushChunk, then copies each session's per-cell recognitions into
// its detected buffer.
func (bm *BatchModels) flush() {
	for start := 0; start < len(bm.queue); start += flushChunk {
		chunk := bm.queue[start:min(start+flushChunk, len(bm.queue))]
		bm.frames = bm.frames[:0]
		for _, s := range chunk {
			bm.frames = append(bm.frames, s.pixels)
		}
		bm.m.recognize(bm.dets, bm.frames)
		for i, s := range chunk {
			copy(s.detected, bm.dets[i*cells:(i+1)*cells])
			s.pending = false
		}
	}
	bm.queue = bm.queue[:0]
}

// NextActionLogits advances this session's LSTM one frame and returns
// action logits (shared head scratch, overwritten by any session's next
// call — sample before touching another session). Sessions step at
// their own simulated times, so the recurrent update is per-row; only
// the frame-recognition CNN is cross-session batched.
func (s *BatchSession) NextActionLogits(detected []scene.Type) []float64 {
	bm := s.bm
	bm.m.lstm.StepState(s.h, s.c, featuresInto(bm.feat, detected))
	return bm.m.head.Forward(s.h)
}
