package agent

import (
	"fmt"
	"testing"

	"pictor/internal/app"
	"pictor/internal/scene"
	"pictor/internal/sim"
)

// The intelligent client's per-frame inference: the CNN over all 24
// grid cells (Detect) plus one LSTM step and the action head. These run
// on every displayed frame of every IC-driven trial.

func benchFrame() *scene.Frame {
	d := scene.Dynamics{
		Kinds:          []scene.Type{scene.Vehicle, scene.Item, scene.Enemy},
		SpawnProb:      0.05,
		DespawnProb:    0.04,
		MoveProb:       0.2,
		PoseDrift:      0.08,
		InputStir:      0.4,
		BaseComplexity: 1.0,
		ComplexityVar:  0.5,
		MotionFloor:    0.15,
	}
	s := scene.New(d, sim.NewRNG(1))
	s.Step(scene.ActForward)
	return s.Render(1, 1920, 1080)
}

func BenchmarkDetect(b *testing.B) {
	m := NewModels(1)
	px := benchFrame().Pixels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Detect(px)
	}
}

// BenchmarkNextActionLogits is one session's LSTM step and action head.
func BenchmarkNextActionLogits(b *testing.B) {
	m := NewModels(1)
	detected := append([]scene.Type(nil), m.Detect(benchFrame().Pixels())...)
	s := NewBatchModels(m).NewSession()
	s.NextActionLogits(detected) // sizes the layers' scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NextActionLogits(detected)
	}
}

// BenchmarkBatchDetect measures cross-session batched detection at
// machine occupancies 1, 8 and 32. The reported ns/op is per FRAME
// BATCH (all B sessions recognized in one pass); divide by B for the
// amortized per-session cost — batching drops it superlinearly versus
// B separate Detect calls because the im2col/matmul fixed overheads
// are paid once per pass instead of once per session.
func BenchmarkBatchDetect(b *testing.B) {
	for _, size := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("B%d", size), func(b *testing.B) {
			bm := NewBatchModels(NewModels(1))
			sessions := make([]*BatchSession, size)
			frames := make([][]float64, size)
			for i := range sessions {
				sessions[i] = bm.NewSession()
				frames[i] = benchFrame().Pixels()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, s := range sessions {
					s.SubmitFrame(frames[j])
				}
				sessions[0].Detected() // flushes the whole batch
			}
		})
	}
}

// BenchmarkInferenceFrame is the full per-frame client path of a
// session alone in its batch: submit, detect, features, LSTM, head,
// softmax sample.
func BenchmarkInferenceFrame(b *testing.B) {
	s := NewBatchModels(NewModels(1)).NewSession()
	px := benchFrame().Pixels()
	rng := sim.NewRNG(7)
	frame := func() {
		s.SubmitFrame(px)
		SampleAction(s.NextActionLogits(s.Detected()), rng)
	}
	frame() // sizes the batch scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
}

// trainSink keeps BenchmarkTrain's result live.
var trainSink *Models

// BenchmarkTrain is one training of the intelligent client with the
// default configuration on a synthetic 1,500-frame STK recording, about
// the length of the 45 s recorded session each paper profile trains on.
func BenchmarkTrain(b *testing.B) {
	rec := makeRecording(app.STK(), 1500, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainSink = Train(rec, DefaultTrainConfig(), 77)
	}
}
