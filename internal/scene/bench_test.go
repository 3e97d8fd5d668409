package scene

import (
	"testing"

	"pictor/internal/sim"
)

// Per-frame hot leaves. Run with -benchmem: the allocation counts here
// are the layer-level regression signal for the single-trial hot path
// (see BENCH_single_trial.json at the repo root).

func BenchmarkSceneStep(b *testing.B) {
	s := New(gameDynamics(), sim.NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(Action(i % int(NumActions)))
	}
}

// BenchmarkSceneRender draws every frame through Pixels, so it times
// the raster, not only Render's snapshot.
func BenchmarkSceneRender(b *testing.B) {
	s := New(gameDynamics(), sim.NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(ActForward)
		f := s.Render(int64(i), 1920, 1080)
		f.Pixels()
		f.Release()
	}
}

// BenchmarkSceneRenderNoReuse measures the render path, raster drawn,
// with the frame free-list defeated (every frame leaks from the pool's
// point of view), quantifying what the recycling is worth.
func BenchmarkSceneRenderNoReuse(b *testing.B) {
	s := New(gameDynamics(), sim.NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(ActForward)
		s.Render(int64(i), 1920, 1080).Pixels()
	}
}

func BenchmarkSimilarity(b *testing.B) {
	s := New(gameDynamics(), sim.NewRNG(1))
	fa := s.Render(1, 1920, 1080)
	s.Step(ActForward)
	fb := s.Render(2, 1920, 1080)
	pa, pb := fa.Pixels(), fb.Pixels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Similarity(pa, pb)
	}
}
