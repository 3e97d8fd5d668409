package scene

import (
	"testing"
	"testing/quick"

	"pictor/internal/sim"
)

func gameDynamics() Dynamics {
	return Dynamics{
		Kinds:          []Type{Vehicle, Item, Enemy},
		SpawnProb:      0.05,
		DespawnProb:    0.04,
		MoveProb:       0.2,
		PoseDrift:      0.08,
		InputStir:      0.4,
		BaseComplexity: 1.0,
		ComplexityVar:  0.5,
		MotionFloor:    0.15,
	}
}

func TestNewSceneReachesSteadyState(t *testing.T) {
	s := New(gameDynamics(), sim.NewRNG(1))
	if s.ObjectCount() == 0 {
		t.Fatal("warmed scene has no objects")
	}
	if s.Tick() != 0 {
		t.Fatalf("fresh scene tick = %d, want 0", s.Tick())
	}
}

func TestStepAdvancesAndBoundsState(t *testing.T) {
	s := New(gameDynamics(), sim.NewRNG(2))
	for i := 0; i < 200; i++ {
		s.Step(Action(i % int(NumActions)))
		if m := s.Motion(); m < 0 || m > 1 {
			t.Fatalf("motion out of range: %v", m)
		}
		if c := s.Complexity(); c < 0.2 || c > 3 {
			t.Fatalf("complexity out of range: %v", c)
		}
		for _, cell := range s.Cells() {
			if cell.T >= NumTypes {
				t.Fatalf("invalid cell type %d", cell.T)
			}
			if cell.T != Empty && (cell.Pose < 0 || cell.Pose >= 1) {
				t.Fatalf("pose out of range: %v", cell.Pose)
			}
		}
	}
	if s.Tick() != 200 {
		t.Fatalf("tick = %d, want 200", s.Tick())
	}
}

func TestInputsAgitateScene(t *testing.T) {
	// Averaged over many seeds, an active player produces more motion
	// than an idle one (the input-sensitivity DeskBench distortion
	// depends on).
	var idle, busy float64
	for seed := int64(0); seed < 20; seed++ {
		si := New(gameDynamics(), sim.NewRNG(seed))
		sb := New(gameDynamics(), sim.NewRNG(seed))
		for i := 0; i < 100; i++ {
			si.Step(ActNone)
			sb.Step(ActPrimary)
			idle += si.Motion()
			busy += sb.Motion()
		}
	}
	if busy <= idle {
		t.Fatalf("active play (%.1f) should exceed idle motion (%.1f)", busy, idle)
	}
}

func TestMotionFloorRespected(t *testing.T) {
	d := gameDynamics()
	d.SpawnProb, d.DespawnProb, d.MoveProb, d.PoseDrift = 0, 0, 0, 0
	d.MotionFloor = 0.3
	s := New(d, sim.NewRNG(3))
	for i := 0; i < 50; i++ {
		s.Step(ActNone)
	}
	if m := s.Motion(); m < 0.29 {
		t.Fatalf("motion = %v, want ≥ floor 0.3", m)
	}
}

func TestRenderDimensionsAndRange(t *testing.T) {
	s := New(gameDynamics(), sim.NewRNG(4))
	f := s.Render(7, 1920, 1080)
	if f.Seq != 7 || f.Width != 1920 || f.Height != 1080 {
		t.Fatalf("frame header wrong: %+v", f)
	}
	if len(f.Pixels()) != FrameW*FrameH {
		t.Fatalf("pixel count = %d, want %d", len(f.Pixels()), FrameW*FrameH)
	}
	for _, p := range f.Pixels() {
		if p < 0 || p > 1 {
			t.Fatalf("pixel out of range: %v", p)
		}
	}
	if f.RawBytes() != 1920*1080*4 {
		t.Fatalf("RawBytes = %v, want 8294400", f.RawBytes())
	}
}

func TestPoseChangesPixels(t *testing.T) {
	// The same object type at the same position with different poses
	// must produce different pixels — the 3D property that breaks
	// pixel-replay tools.
	d := Dynamics{Kinds: []Type{Vehicle}, BaseComplexity: 1}
	a := New(d, sim.NewRNG(5))
	b := New(d, sim.NewRNG(5))
	a.cells, b.cells = [GridW * GridH]Cell{}, [GridW * GridH]Cell{}
	a.cells[0] = Cell{T: Vehicle, Pose: 0.1}
	b.cells[0] = Cell{T: Vehicle, Pose: 0.7}
	fa := a.Render(1, 1920, 1080)
	fb := b.Render(1, 1920, 1080)
	// Compare just the occupied cell's 8×8 block: the rest of the frame
	// is empty background and would dilute the difference.
	block := func(px []float64) []float64 {
		out := make([]float64, 0, CellPx*CellPx)
		for y := 0; y < CellPx; y++ {
			out = append(out, px[y*FrameW:y*FrameW+CellPx]...)
		}
		return out
	}
	if sim := Similarity(block(fa.Pixels()), block(fb.Pixels())); sim > 0.9 {
		t.Fatalf("pose change left object pixels nearly identical (similarity %v)", sim)
	}
}

func TestSimilarityProperties(t *testing.T) {
	s := New(gameDynamics(), sim.NewRNG(6))
	f := s.Render(1, 1920, 1080)
	px := f.Pixels()
	if got := Similarity(px, px); got != 1 {
		t.Fatalf("self-similarity = %v, want 1", got)
	}
	if got := Similarity(px, nil); got != 0 {
		t.Fatalf("mismatched-length similarity = %v, want 0", got)
	}
	zeros := make([]float64, len(px))
	ones := make([]float64, len(px))
	for i := range ones {
		ones[i] = 1
	}
	if got := Similarity(zeros, ones); got != 0 {
		t.Fatalf("opposite-frame similarity = %v, want 0", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := New(gameDynamics(), sim.NewRNG(7))
	f := s.Render(1, 1920, 1080)
	f.Tags = []uint64{42}
	g := f.Clone()
	g.Pixels()[0] = 0.1234
	g.Tags[0] = 99
	if f.Pixels()[0] == 0.1234 || f.Tags[0] == 99 {
		t.Fatal("clone shares storage with original")
	}
}

// TestUnreadFramesAllocateNoRaster: a Render/Release cycle that never
// reads pixels allocates no pixel buffer. The first read allocates it,
// and the pooled frame keeps it for its next draw.
func TestUnreadFramesAllocateNoRaster(t *testing.T) {
	s := New(gameDynamics(), sim.NewRNG(8))
	for i := 0; i < 10; i++ {
		s.Step(ActForward)
		f := s.Render(int64(i), 1920, 1080)
		if f.pixels != nil {
			t.Fatalf("frame %d holds a pixel buffer no reader asked for", i)
		}
		f.Release()
	}
	f := s.Render(10, 1920, 1080)
	px := f.Pixels()
	f.Release()
	s.Step(ActForward)
	if g := s.Render(11, 1920, 1080); &g.Pixels()[0] != &px[0] {
		t.Fatal("the recycled frame allocated a new pixel buffer")
	}
}

func TestActionAndTypeStrings(t *testing.T) {
	if ActPrimary.String() != "primary" || ActNone.String() != "none" {
		t.Fatal("action names wrong")
	}
	if Action(200).String() != "invalid" {
		t.Fatal("invalid action should say so")
	}
	if Vehicle.String() != "vehicle" || Type(200).String() != "invalid" {
		t.Fatal("type names wrong")
	}
	if !ActCamera.Valid() || Action(NumActions).Valid() {
		t.Fatal("Valid() wrong")
	}
}

// Property: scenes with identical dynamics and seed evolve identically.
func TestSceneDeterminismProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		a := New(gameDynamics(), sim.NewRNG(seed))
		b := New(gameDynamics(), sim.NewRNG(seed))
		for i := 0; i < int(steps); i++ {
			act := Action(uint8(i) % uint8(NumActions))
			a.Step(act)
			b.Step(act)
		}
		fa, fb := a.Render(1, 100, 100), b.Render(1, 100, 100)
		return Similarity(fa.Pixels(), fb.Pixels()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: rendered pixels are always finite and in [0,1] regardless of
// dynamics extremes.
func TestRenderBoundsProperty(t *testing.T) {
	f := func(seed int64, spawn, move, drift uint8) bool {
		d := gameDynamics()
		d.SpawnProb = float64(spawn) / 255
		d.MoveProb = float64(move) / 255
		d.PoseDrift = float64(drift) / 255
		s := New(d, sim.NewRNG(seed))
		for i := 0; i < 20; i++ {
			s.Step(ActPrimary)
		}
		fr := s.Render(1, 640, 480)
		for _, p := range fr.Pixels() {
			if p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
