package agent

import (
	"testing"

	"pictor/internal/app"
	"pictor/internal/scene"
	"pictor/internal/sim"
)

// makeRecording synthesizes a human session directly from a scene (no
// full cluster needed): frames render, the policy acts at the profile's
// rate, everything is recorded.
func makeRecording(prof app.Profile, frames int, seed int64) *Recording {
	rng := sim.NewRNG(seed)
	sc := scene.New(prof.Dynamics, rng)
	rec := &Recording{Benchmark: prof.Name}
	for i := 0; i < frames; i++ {
		act := scene.ActNone
		if rng.Bool(prof.HumanActProb) {
			act = PolicyAction(prof, sc.Cells(), rng)
		}
		sc.Step(act)
		f := sc.Render(int64(i), prof.Width, prof.Height)
		rec.Samples = append(rec.Samples, Sample{Pixels: f.Pixels(), Cells: f.Cells, Action: act})
	}
	return rec
}

func fastTrainConfig() TrainConfig {
	return TrainConfig{CNNEpochs: 2, CNNMaxPatch: 2500, LSTMEpochs: 8, SeqLen: 20, LearningRate: 0.012}
}

func TestPolicyCoversAllGenres(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, prof := range app.Suite() {
		sc := scene.New(prof.Dynamics, rng)
		for i := 0; i < 20; i++ {
			sc.Step(scene.ActNone)
			a := PolicyAction(prof, sc.Cells(), rng)
			if !a.Valid() {
				t.Fatalf("%s policy produced invalid action", prof.Name)
			}
		}
	}
}

func TestPolicyRespondsToObjects(t *testing.T) {
	rng := sim.NewRNG(2)
	prof := app.RE() // FPS: enemies → fire
	cells := make([]scene.Cell, scene.GridW*scene.GridH)
	cells[0] = scene.Cell{T: scene.Enemy}
	if got := PolicyAction(prof, cells, rng); got != scene.ActPrimary {
		t.Fatalf("FPS policy with enemy on screen = %v, want primary", got)
	}
}

func TestHumanActsAtProfileRate(t *testing.T) {
	k := sim.NewKernel()
	rng := sim.NewRNG(3)
	prof := app.STK()
	h := NewHuman(k, rng, prof)
	var sent []scene.Action
	h.Attach(func(a scene.Action) { sent = append(sent, a) })
	sc := scene.New(prof.Dynamics, rng)
	// 300 frames at ~33ms spacing ≈ 10 seconds of play.
	for i := 0; i < 300; i++ {
		k.At(sim.Time(i)*sim.Time(33*sim.Millisecond), func() {
			sc.Step(scene.ActNone)
			h.OnFrame(sc.Render(int64(i), 1920, 1080))
		})
	}
	k.Run()
	// ~0.22 act prob × 30fps, throttled by MinActionGap+reaction → a
	// couple of actions per second.
	perSec := float64(len(sent)) / 10
	if perSec < 0.5 || perSec > 8 {
		t.Fatalf("human action rate = %.1f/s, implausible", perSec)
	}
	if h.Actions() != int64(len(sent)) {
		t.Fatalf("Actions() = %d, sent %d", h.Actions(), len(sent))
	}
}

func TestHumanReactionDelays(t *testing.T) {
	k := sim.NewKernel()
	prof := app.RE()
	prof.HumanActProb = 1 // always act
	h := NewHuman(k, sim.NewRNG(4), prof)
	var sentAt []sim.Time
	h.Attach(func(a scene.Action) { sentAt = append(sentAt, k.Now()) })
	sc := scene.New(prof.Dynamics, sim.NewRNG(5))
	f := sc.Render(1, 1920, 1080)
	h.OnFrame(f)
	k.Run()
	if len(sentAt) != 1 {
		t.Fatalf("sent %d actions, want 1", len(sentAt))
	}
	// Reaction ~190ms with 25% lognormal jitter.
	if ms := sentAt[0].Millis(); ms < 60 || ms > 600 {
		t.Fatalf("reaction latency = %vms, want human-scale", ms)
	}
}

func TestRecorderCapturesFramesAndActions(t *testing.T) {
	k := sim.NewKernel()
	prof := app.IM()
	h := NewHuman(k, sim.NewRNG(6), prof)
	rec := NewRecorder(h, prof.Name)
	h.Attach(func(a scene.Action) {})
	sc := scene.New(prof.Dynamics, sim.NewRNG(7))
	for i := 0; i < 50; i++ {
		sc.Step(scene.ActNone)
		h.OnFrame(sc.Render(int64(i), 1920, 1080))
	}
	k.Run()
	if len(rec.Samples) != 50 {
		t.Fatalf("recorded %d samples, want 50", len(rec.Samples))
	}
	acted := 0
	for _, s := range rec.Samples {
		if len(s.Pixels) != scene.FrameW*scene.FrameH || len(s.Cells) != scene.GridW*scene.GridH {
			t.Fatal("sample missing pixels or cells")
		}
		if s.Action != scene.ActNone {
			acted++
		}
	}
	if acted == 0 {
		t.Fatal("recording captured no actions (VR profile should act often)")
	}
}

func TestCNNLearnsToRecognizeObjects(t *testing.T) {
	prof := app.STK()
	rec := makeRecording(prof, 150, 8)
	m := Train(rec, fastTrainConfig(), 9)
	acc := m.CNNAccuracy(rec)
	if acc < 0.8 {
		t.Fatalf("CNN cell accuracy = %.2f, want ≥ 0.8", acc)
	}
}

func TestDetectOutputShape(t *testing.T) {
	m := NewModels(10)
	px := make([]float64, scene.FrameW*scene.FrameH)
	det := m.Detect(px)
	if len(det) != scene.GridW*scene.GridH {
		t.Fatalf("Detect returned %d cells, want %d", len(det), scene.GridW*scene.GridH)
	}
}

func TestLSTMMimicsActionRate(t *testing.T) {
	prof := app.IM()
	rec := makeRecording(prof, 400, 11)
	m := Train(rec, fastTrainConfig(), 12)

	// Replay the recording's frames through the trained models and
	// compare act rates: the IC should behave like the human.
	rng := sim.NewRNG(13)
	var humanActs, icActs float64
	sess := NewBatchModels(m).NewSession()
	for _, s := range rec.Samples {
		if s.Action != scene.ActNone {
			humanActs++
		}
		sess.SubmitFrame(s.Pixels)
		a := SampleAction(sess.NextActionLogits(sess.Detected()), rng)
		if a != scene.ActNone {
			icActs++
		}
	}
	if humanActs == 0 {
		t.Fatal("recording has no actions")
	}
	ratio := icActs / humanActs
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("IC act rate is %.1f× the human's — not mimicking", ratio)
	}
}

func TestFeaturesShape(t *testing.T) {
	det := make([]scene.Type, scene.GridW*scene.GridH)
	det[0] = scene.Enemy
	f := featuresInto(make([]float64, FeatureSize), det)
	if f[int(scene.Enemy)] == 0 {
		t.Fatal("enemy count feature empty")
	}
	if f[FeatureSize-1] != 1 {
		t.Fatal("bias input not set")
	}
}

func TestSampleActionDistribution(t *testing.T) {
	rng := sim.NewRNG(14)
	logits := make([]float64, int(scene.NumActions))
	logits[int(scene.ActForward)] = 10 // overwhelming mass
	for i := 0; i < 50; i++ {
		if a := SampleAction(logits, rng); a != scene.ActForward {
			t.Fatalf("peaked distribution sampled %v", a)
		}
	}
}

func TestICDriverProcessesFramesWithLatency(t *testing.T) {
	k := sim.NewKernel()
	prof := app.RE()
	rec := makeRecording(prof, 120, 15)
	m := Train(rec, fastTrainConfig(), 16)
	ic := NewIntelligentClientInBatch(k, sim.NewRNG(17), prof, NewBatchModels(m).NewSession())
	sent := 0
	ic.Attach(func(a scene.Action) { sent++ })
	sc := scene.New(prof.Dynamics, sim.NewRNG(18))
	for i := 0; i < 150; i++ {
		k.At(sim.Time(i)*sim.Time(33*sim.Millisecond), func() {
			sc.Step(scene.ActNone)
			ic.OnFrame(sc.Render(int64(i), 1920, 1080))
		})
	}
	k.Run()
	if ic.CVTimes.N() == 0 {
		t.Fatal("no CV inferences ran")
	}
	// CV latency ≈ profile's 66ms.
	if mean := ic.CVTimes.Mean(); mean < 40 || mean > 100 {
		t.Fatalf("CV latency = %vms, want ≈ 66ms", mean)
	}
	if mean := ic.RNNTimes.Mean(); mean <= 0 || mean > 10 {
		t.Fatalf("RNN latency = %vms, want ≈ 2ms", mean)
	}
	// With CV ≈ 66ms, the IC can process at most ~15 frames/sec: it
	// must have skipped some of the 150 frames.
	if int(ic.CVTimes.N()) >= 150 {
		t.Fatal("IC processed every frame despite CV latency — no coalescing")
	}
}
