package agent

import (
	"math/rand"
	"testing"

	"pictor/internal/scene"
)

func TestModelsCloneMatchesAndIsolates(t *testing.T) {
	m := NewModels(11)
	c := m.Clone()

	rng := rand.New(rand.NewSource(3))
	pixels := make([]float64, scene.FrameW*scene.FrameH)
	for i := range pixels {
		pixels[i] = rng.Float64()
	}

	// Same weights → same detections.
	da := m.Detect(pixels)
	db := c.Detect(pixels)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("clone detection diverges at cell %d: %v vs %v", i, da[i], db[i])
		}
	}

	// Sessions over the two copies follow the same LSTM trajectory.
	sa, sb := NewBatchModels(m).NewSession(), NewBatchModels(c).NewSession()
	for step := 0; step < 4; step++ {
		la := sa.NextActionLogits(da)
		lb := sb.NextActionLogits(db)
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("clone logits diverge at step %d", step)
			}
		}
	}

	// A session's recurrent state is its own: stepping one session of a
	// batch must not perturb another's.
	bm := NewBatchModels(m)
	first, other := bm.NewSession(), bm.NewSession()
	// NextActionLogits returns shared head scratch; copy before the
	// next call overwrites it.
	refFirst := append([]float64(nil), first.NextActionLogits(da)...)
	other.NextActionLogits(db)
	other.NextActionLogits(db)
	first.ResetState()
	again := first.NextActionLogits(da)
	for i := range refFirst {
		if refFirst[i] != again[i] {
			t.Fatal("one session's state was perturbed by another's")
		}
	}
}
