package scene_test

import (
	"math"
	"math/rand"
	"testing"

	"pictor/internal/app"
	"pictor/internal/scene"
	"pictor/internal/sim"
)

// sameBits reports the first pixel where two rasters differ in any bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pixels, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: pixel %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestLateDrawMatchesEagerDraw runs every suite profile's scene through
// a steady render/release pool in which frames are drawn late, out of
// order, after their storage was recycled, or never. Each drawn raster
// must equal, bit for bit, the raster a twin scene draws right after
// the same Render.
func TestLateDrawMatchesEagerDraw(t *testing.T) {
	for _, prof := range app.Suite() {
		lazy := scene.New(prof.Dynamics, sim.NewRNG(21))
		eager := scene.New(prof.Dynamics, sim.NewRNG(21))
		pick := rand.New(rand.NewSource(5))
		want := map[int64][]float64{}
		var held []*scene.Frame
		drawn := 0
		check := func(f *scene.Frame) {
			sameBits(t, prof.Name, f.Pixels(), want[f.Seq])
			drawn++
		}
		for seq := int64(0); seq < 300; seq++ {
			act := scene.Action(pick.Intn(int(scene.NumActions)))
			lazy.Step(act)
			eager.Step(act)
			e := eager.Render(seq, prof.Width, prof.Height)
			want[seq] = append([]float64(nil), e.Pixels()...)
			e.Release()

			held = append(held, lazy.Render(seq, prof.Width, prof.Height))
			if pick.Intn(3) == 0 {
				check(held[pick.Intn(len(held))])
			}
			for len(held) > 1+pick.Intn(4) {
				j := pick.Intn(len(held))
				if pick.Intn(2) == 0 {
					check(held[j])
				}
				delete(want, held[j].Seq)
				held[j].Release()
				held = append(held[:j], held[j+1:]...)
			}
		}
		if drawn < 100 {
			t.Fatalf("%s: only %d late draws checked", prof.Name, drawn)
		}
	}
}

// TestRecycledFrameDrawsNewSnapshot: a frame drawn, released and
// rendered again at a later tick returns the new raster, not the one
// its buffer still holds.
func TestRecycledFrameDrawsNewSnapshot(t *testing.T) {
	prof := app.Suite()[0]
	s := scene.New(prof.Dynamics, sim.NewRNG(3))
	twin := scene.New(prof.Dynamics, sim.NewRNG(3))
	f := s.Render(1, prof.Width, prof.Height)
	old := append([]float64(nil), f.Pixels()...)
	f.Release()
	s.Step(scene.ActForward)
	twin.Step(scene.ActForward)
	g := s.Render(2, prof.Width, prof.Height)
	if g != f {
		t.Fatal("the free list did not recycle the released frame")
	}
	sameBits(t, "recycled frame", g.Pixels(), twin.Render(2, prof.Width, prof.Height).Pixels())
	if scene.Similarity(g.Pixels(), old) == 1 {
		t.Fatal("recycled frame returned the raster of its earlier tick")
	}
}

// TestCloneOfUndrawnFrameCarriesRaster: Clone draws an undrawn frame,
// so the clone keeps its raster after the original is recycled and
// drawn over.
func TestCloneOfUndrawnFrameCarriesRaster(t *testing.T) {
	prof := app.Suite()[0]
	s := scene.New(prof.Dynamics, sim.NewRNG(4))
	twin := scene.New(prof.Dynamics, sim.NewRNG(4))
	f := s.Render(1, prof.Width, prof.Height)
	c := f.Clone()
	f.Release()
	s.Step(scene.ActForward)
	s.Render(2, prof.Width, prof.Height).Pixels() // reuses f's buffer
	sameBits(t, "clone", c.Pixels(), twin.Render(1, prof.Width, prof.Height).Pixels())
}
