package agent

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"pictor/internal/nn"
	"pictor/internal/scene"
	"pictor/internal/sim"
	"pictor/internal/tensor"
)

// Models bundles the intelligent client's two networks: the CNN that
// recognizes the object in each grid cell of a frame (the paper's
// MobileNets role) and the LSTM+head that maps recognized objects to
// the next human-like action.
//
// The CNN is conv (ReLU fused) → 2×2 max pool → dense classifier. One
// code path runs it for inference and for training's detection pass:
// recognize, over a batch of frames. Training drives the three layers
// one example at a time.
type Models struct {
	conv  *nn.Conv2D
	pool  *nn.MaxPool2
	dense *nn.Dense // the CNN's classifier

	lstm *nn.LSTM
	head *nn.Dense

	// Per-frame inference scratch, owned by this clone (never shared:
	// Clone starts clones with empty scratch). Reused across frames so
	// steady-state inference does not allocate.
	detOut  []scene.Type
	frame   [1][]float64   // Detect's one-frame batch
	batchIn *tensor.Tensor // (frames·cells, CellPx, CellPx, 1) patch batch
	featBuf []float64
}

// FeatureSize is the LSTM input width: per-type object counts plus a
// bias term. Following §3.1, the features are the objects recognized in
// the frame; the labels are the corresponding human actions. The
// vocabulary is pinned to the core (Table-2) types: like the paper's
// fixed-class MobileNets, the CNN meets extended entity kinds (Cloth,
// PointCloud) as novel content and recognizes them as the nearest core
// class — sizing the networks by the open-ended full vocabulary would
// reshape every trained model whenever a scenario family is added.
const FeatureSize = int(scene.NumCoreTypes) + 1

// lstmHidden is the LSTM width.
const lstmHidden = 14

// cells is the number of grid cells the CNN classifies per frame.
const cells = scene.GridW * scene.GridH

// NewModels builds untrained networks.
func NewModels(seed int64) *Models {
	rng := rand.New(rand.NewSource(seed))
	conv := nn.NewConv2D(scene.CellPx, scene.CellPx, 1, 6, 3, rng)
	pool := nn.NewMaxPool2(conv.OutH(), conv.OutW(), 6)
	m := &Models{
		conv: conv,
		pool: pool,
		lstm: nn.NewLSTM(FeatureSize, lstmHidden, rng),
		head: nn.NewDense(lstmHidden, int(scene.NumActions), rng),
	}
	// The classifier draws its initial weights last.
	m.dense = nn.NewDense(pool.OutLen(), int(scene.NumCoreTypes), rng)
	return m
}

// cnnParams lists the CNN's learnable parameters in optimizer order:
// the convolution's, then the classifier's.
func (m *Models) cnnParams() []*nn.Param {
	return append(m.conv.Params(), m.dense.Params()...)
}

// patch extracts cell (gx, gy)'s CellPx×CellPx pixels from a frame
// raster into dst. Rows are copied element by element: a memmove call
// costs more than moving eight values.
func patch(pixels []float64, gx, gy int, dst []float64) {
	for y := 0; y < scene.CellPx; y++ {
		src := (gy*scene.CellPx+y)*scene.FrameW + gx*scene.CellPx
		d := (*[scene.CellPx]float64)(dst[y*scene.CellPx:])
		s := (*[scene.CellPx]float64)(pixels[src:])
		for x := range d {
			d[x] = s[x]
		}
	}
}

// recognize classifies every grid cell of each frame raster in one
// batched CNN pass (conv with its fused ReLU, pool, classifier) and
// writes frame i's types, in row-major cell order, to
// out[i·cells:(i+1)·cells]. Callers pass at most flushChunk frames.
// Every cell's logits are computed exactly as for that cell alone.
func (m *Models) recognize(out []scene.Type, frames [][]float64) {
	const patchLen = scene.CellPx * scene.CellPx
	m.batchIn = tensor.Ensure(m.batchIn, len(frames)*cells, scene.CellPx, scene.CellPx, 1)
	for i, px := range frames {
		for c := 0; c < cells; c++ {
			off := (i*cells + c) * patchLen
			patch(px, c%scene.GridW, c/scene.GridW, m.batchIn.Data[off:off+patchLen])
		}
	}
	x := m.conv.ForwardBatchReLU(m.batchIn)
	x = m.pool.ForwardBatch(x)
	logits := m.dense.ForwardBatch(x) // (frames·cells, NumCoreTypes)
	nc := m.dense.Out
	for r := range out[:len(frames)*cells] {
		out[r] = scene.Type(tensor.ArgMax(logits.Data[r*nc : (r+1)*nc]))
	}
}

// Detect classifies every grid cell of the frame raster, returning the
// recognized object types in row-major cell order. This is the real
// inference path — the CNN actually runs on the pixels.
//
// The returned slice is scratch owned by the model and is overwritten
// by the next Detect on the same clone; copy it to retain it.
func (m *Models) Detect(pixels []float64) []scene.Type {
	if m.detOut == nil {
		m.detOut = make([]scene.Type, cells)
	}
	m.frame[0] = pixels
	m.recognize(m.detOut, m.frame[:])
	m.frame[0] = nil
	return m.detOut
}

// detectAll recognizes every recorded frame, returning frame i's types
// at [i·cells:(i+1)·cells]. The frames are split into contiguous ranges
// over `workers` goroutines, each with its own clone of the networks,
// and each range runs in chunks of flushChunk frames; every row is
// computed as if alone, so the result does not depend on the split.
func (m *Models) detectAll(samples []Sample, workers int) []scene.Type {
	out := make([]scene.Type, len(samples)*cells)
	workers = max(1, min(workers, len(samples)))
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		w, lo, hi := m.Clone(), k*len(samples)/workers, (k+1)*len(samples)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			var frames [flushChunk][]float64
			for start := lo; start < hi; start += flushChunk {
				end := min(start+flushChunk, hi)
				for i := start; i < end; i++ {
					frames[i-start] = samples[i].Pixels
				}
				w.recognize(out[start*cells:end*cells], frames[:end-start])
			}
		}()
	}
	wg.Wait()
	return out
}

// Features builds the LSTM input from the recognized objects.
func Features(detected []scene.Type) []float64 {
	return featuresInto(make([]float64, FeatureSize), detected)
}

// featuresInto fills a FeatureSize-long buffer with the LSTM features.
func featuresInto(f []float64, detected []scene.Type) []float64 {
	for i := range f {
		f[i] = 0
	}
	for _, t := range detected {
		if t != scene.Empty && int(t) < int(scene.NumCoreTypes) {
			f[t] += float64(1.0 / float64(len(detected)) * 4) // scaled count
		}
	}
	f[FeatureSize-1] = 1 // bias input
	return f
}

// NextActionLogits advances the LSTM one frame and returns action
// logits (model-owned scratch, overwritten by the next call). The
// caller samples or argmaxes.
func (m *Models) NextActionLogits(detected []scene.Type) []float64 {
	if cap(m.featBuf) < FeatureSize {
		m.featBuf = make([]float64, FeatureSize)
	}
	h := m.lstm.Step(featuresInto(m.featBuf[:FeatureSize], detected))
	return m.head.Forward(h)
}

// ResetState clears the LSTM's recurrent state (new session).
func (m *Models) ResetState() { m.lstm.Reset() }

// SampleAction draws from the softmax over logits. The softmax lands in
// a stack buffer: this runs once per displayed frame and must not
// allocate.
func SampleAction(logits []float64, rng *sim.RNG) scene.Action {
	var buf [scene.NumActions]float64
	if len(logits) > len(buf) {
		panic("agent: SampleAction logits wider than the action vocabulary")
	}
	p := buf[:len(logits)]
	tensor.SoftmaxInto(p, logits)
	r := rng.Float64()
	var cum float64
	for i, v := range p {
		cum += v
		if r < cum {
			return scene.Action(i)
		}
	}
	return scene.Action(len(p) - 1)
}

// TrainConfig bounds training cost.
type TrainConfig struct {
	CNNEpochs    int
	CNNMaxPatch  int // cap on patches per epoch (subsampled)
	LSTMEpochs   int
	SeqLen       int // BPTT window
	LearningRate float64
}

// DefaultTrainConfig balances accuracy against test runtime.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{CNNEpochs: 3, CNNMaxPatch: 6000, LSTMEpochs: 14, SeqLen: 24, LearningRate: 0.01}
}

// Train fits both models from a recorded human session: the CNN on
// (cell pixels → labeled type), the LSTM on (recognized objects →
// recorded action) sequences, as §3.1 prescribes (the RNN's training
// features come from the CNN's own recognitions, not the ground truth).
func Train(rec *Recording, cfg TrainConfig, seed int64) *Models {
	m := NewModels(seed)
	rng := rand.New(rand.NewSource(seed + 1))
	m.trainCNN(rec, cfg, rng)
	m.trainLSTM(rec, cfg)
	return m
}

// trainCNN fits the CNN on (cell pixels → labeled type) examples drawn
// at random from the recording's labeled cells, one forward and one
// backward pass per example and an Adam step every four.
func (m *Models) trainCNN(rec *Recording, cfg TrainConfig, rng *rand.Rand) {
	// The pool indexes the labeled cells: sample·cells + cell.
	var pool []int32
	for si, s := range rec.Samples {
		for c := 0; c < cells; c++ {
			// Extended kinds sit outside the CNN's fixed class
			// vocabulary; their patches carry no usable label.
			if s.Cells[c].T >= scene.NumCoreTypes {
				continue
			}
			pool = append(pool, int32(si*cells+c))
		}
	}
	if len(pool) == 0 {
		return
	}
	opt := nn.NewAdam(m.cnnParams(), cfg.LearningRate)
	px := make([]float64, scene.CellPx*scene.CellPx)
	grad := make([]float64, m.dense.Out)
	for epoch := 0; epoch < cfg.CNNEpochs; epoch++ {
		n := min(cfg.CNNMaxPatch, len(pool))
		for i := 0; i < n; i++ {
			ex := int(pool[rng.Intn(len(pool))])
			s, c := &rec.Samples[ex/cells], ex%cells
			patch(s.Pixels, c%scene.GridW, c/scene.GridW, px)
			logits := m.dense.Forward(m.pool.Forward(m.conv.ForwardReLU(px)))
			nn.SoftmaxCrossEntropy(grad, logits, int(s.Cells[c].T))
			m.conv.BackwardReLU(m.pool.Backward(m.dense.Backward(grad)))
			if i%4 == 3 {
				opt.Step()
			}
		}
		opt.Step()
	}
}

// trainLSTM fits the LSTM and its head on (recognized objects →
// recorded action) sequences of SeqLen frames.
func (m *Models) trainLSTM(rec *Recording, cfg TrainConfig) {
	if len(rec.Samples) < 2 {
		return
	}
	// The CNN's recognitions are the features; compute each frame's
	// once.
	detections := m.detectAll(rec.Samples, runtime.GOMAXPROCS(0))
	feats := make([]float64, len(rec.Samples)*FeatureSize)
	for i := range rec.Samples {
		featuresInto(feats[i*FeatureSize:(i+1)*FeatureSize], detections[i*cells:(i+1)*cells])
	}
	params := append(m.lstm.Params(), m.head.Params()...)
	opt := nn.NewAdam(params, cfg.LearningRate)
	// Class weights: acting frames are rarer than idle ones; balance.
	var acted, idle float64
	for _, s := range rec.Samples {
		if s.Action == scene.ActNone {
			idle++
		} else {
			acted++
		}
	}
	// A mild reweighting keeps rare acting frames from being drowned
	// out early in training; heavy weights would make the client act
	// far more often than the human it mimics.
	actWeight := 1.0
	if acted > 0 {
		actWeight = math.Sqrt(idle / acted)
		if actWeight > 5 {
			actWeight = 5
		}
		if actWeight < 1 {
			actWeight = 1
		}
	}
	g := make([]float64, m.head.Out)
	// BPTT retains one head gradient per timestep; they live in dhBuf.
	dhBuf := make([]float64, cfg.SeqLen*lstmHidden)
	dHs := make([][]float64, 0, cfg.SeqLen)
	for epoch := 0; epoch < cfg.LSTMEpochs; epoch++ {
		for start := 0; start+1 < len(rec.Samples); start += cfg.SeqLen {
			end := min(start+cfg.SeqLen, len(rec.Samples))
			m.lstm.Reset()
			m.lstm.SetTraining(true)
			dHs = dHs[:0]
			for i := start; i < end; i++ {
				h := m.lstm.Step(feats[i*FeatureSize : (i+1)*FeatureSize])
				logits := m.head.Forward(h)
				nn.SoftmaxCrossEntropy(g, logits, int(rec.Samples[i].Action))
				if rec.Samples[i].Action != scene.ActNone {
					for j := range g {
						g[j] *= actWeight
					}
				}
				dh := dhBuf[(i-start)*lstmHidden : (i-start+1)*lstmHidden]
				copy(dh, m.head.Backward(g))
				dHs = append(dHs, dh)
			}
			m.lstm.Backward(dHs)
			opt.Step()
		}
	}
	m.lstm.SetTraining(false)
	m.lstm.Reset()
}

// CNNAccuracy evaluates per-cell recognition accuracy on a recording.
func (m *Models) CNNAccuracy(rec *Recording) float64 {
	correct, total := 0, 0
	for _, s := range rec.Samples {
		det := m.Detect(s.Pixels)
		for i, d := range det {
			if d == s.Cells[i].T {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
