// Package scene provides the synthetic 3D application content model:
// scenes of typed, randomly placed/generated objects that evolve with
// gameplay, and a rasterizer that turns a scene into a pixel frame.
//
// This substitutes for the real games in the paper's suite. The crucial
// properties are preserved: objects appear at random positions, the same
// object renders to different pixels depending on its pose (viewing
// angle), scene activity responds to player inputs, and frame content
// determines rendering complexity and compressibility. These are exactly
// the properties that make recorded-replay input generation (VNCPlay /
// DeskBench) fail on 3D content while Pictor's CNN+RNN client works.
package scene

import (
	"math"

	"pictor/internal/sim"
)

// Action is one user input in the shared vocabulary used across the
// benchmark suite (each benchmark interprets it in its own terms:
// steering for a racer, unit commands for an RTS, head motion for VR).
type Action uint8

// The action vocabulary.
const (
	ActNone Action = iota
	ActLeft
	ActRight
	ActForward
	ActBack
	ActPrimary   // fire / select / interact
	ActSecondary // alt fire / build / menu
	ActCamera    // camera or head motion
	NumActions   // count sentinel
)

var actionNames = [NumActions]string{
	"none", "left", "right", "forward", "back", "primary", "secondary", "camera",
}

func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return "invalid"
}

// Valid reports whether a is a real action (including ActNone).
func (a Action) Valid() bool { return a < NumActions }

// Type classifies an on-screen object.
type Type uint8

// Object types drawn by the suite's scenes. The first block is the
// paper suite's vocabulary; NumCoreTypes bounds it because the
// intelligent client's CNN is sized to exactly these classes (see
// agent.FeatureSize) — growing the core vocabulary would change every
// trained model's shape and therefore every pinned fixture.
const (
	Empty    Type = iota
	Track         // road/terrain marker
	Vehicle       // kart, hero, unit
	Item          // pickup, resource
	Enemy         // opponent, creep
	Building      // structure
	Panel         // UI/HUD element
	Target        // objective, anatomy highlight (VR)
	// NumCoreTypes bounds the original Table-2 vocabulary — the
	// intelligent client's recognition classes. New entity kinds go
	// below it: the CNN recognizes them as the nearest core class
	// (a fixed-vocabulary recognizer meeting novel content), while the
	// human reference policy perceives them exactly (Frame.Cells).
	NumCoreTypes
)

// Extended object types for scenario families beyond the paper's six.
const (
	// Cloth is a deforming captured surface (volumetric-video subjects:
	// people, garments) — relentless pose change, codec-hostile pixels.
	Cloth Type = NumCoreTypes + iota
	// PointCloud is dense static geometry (CAD assemblies, volumetric
	// capture backdrops) — extreme render complexity, near-zero motion.
	PointCloud
	// NumTypes counts every object type, extended kinds included.
	NumTypes
)

var typeNames = [NumTypes]string{
	"empty", "track", "vehicle", "item", "enemy", "building", "panel", "target",
	"cloth", "pointcloud",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "invalid"
}

// Cell is one grid position of the scene.
type Cell struct {
	T Type
	// Pose in [0,1) is the object's viewing-angle/variant parameter.
	// The rasterizer draws the same Type very differently for different
	// poses — the "same object, different pixels" property of 3D.
	Pose float64
}

// Dynamics parameterizes how a benchmark's scene behaves.
type Dynamics struct {
	// Kinds lists the object types this benchmark spawns (besides Empty).
	Kinds []Type
	// SpawnProb is the per-tick probability an empty cell spawns.
	SpawnProb float64
	// DespawnProb is the per-tick probability an object disappears.
	DespawnProb float64
	// MoveProb is the per-tick probability an object shifts cells.
	MoveProb float64
	// PoseDrift is how much poses change per tick (3D view randomness;
	// VR titles with smooth head-tracking use small values).
	PoseDrift float64
	// InputStir is how strongly a non-idle player action agitates the
	// scene (spawns, motion). RTS games are highly input-driven.
	InputStir float64
	// BaseComplexity is the nominal render-complexity level (≈1.0).
	BaseComplexity float64
	// ComplexityVar is how much complexity swings with object density.
	ComplexityVar float64
	// MotionFloor is the minimum motion level (racing games never sit
	// still; menus do).
	MotionFloor float64
}

// Grid geometry shared by the suite: scenes are GridW×GridH cells and
// rasterize at CellPx pixels per cell.
const (
	GridW  = 6
	GridH  = 4
	CellPx = 8
	// FrameW and FrameH are the raster dimensions.
	FrameW = GridW * CellPx
	FrameH = GridH * CellPx
)

// Scene is the evolving content of one application instance.
type Scene struct {
	dyn   Dynamics
	rng   *sim.RNG
	cells [GridW * GridH]Cell
	tick  int64

	stir       float64 // recent input agitation, decays per tick
	motion     float64 // fraction of cells changed last tick
	complexity float64

	// free is the frame free list: frames released by the pipeline
	// (Frame.Release) are recycled by the next Render.
	free []*Frame

	// env memoizes the pose envelopes the scene's frames are drawn with.
	env envMemo
}

// New creates a scene and populates it to steady-state density.
func New(d Dynamics, rng *sim.RNG) *Scene {
	if len(d.Kinds) == 0 {
		d.Kinds = []Type{Vehicle, Item, Enemy}
	}
	if d.BaseComplexity <= 0 {
		d.BaseComplexity = 1
	}
	s := &Scene{dyn: d, rng: rng.Fork("scene")}
	// Warm the scene so the first frames are representative.
	for i := 0; i < 30; i++ {
		s.Step(ActNone)
	}
	s.tick = 0
	return s
}

// Step advances the scene one application-logic tick under the given
// player action.
func (s *Scene) Step(a Action) {
	s.tick++
	if a != ActNone {
		s.stir += s.dyn.InputStir
		if s.stir > 3 {
			s.stir = 3
		}
	}
	// Player activity spawns and moves things (fights start, units
	// deploy); it does not make them vanish faster — so busy play
	// raises scene density and complexity, and idle sessions decay to
	// calm scenes. This asymmetry is what record-replay tools distort
	// when their replay stalls.
	agitation := 1 + s.stir
	changed := 0
	for i := range s.cells {
		c := &s.cells[i]
		if c.T == Empty {
			if s.rng.Bool(clampProb(s.dyn.SpawnProb * agitation)) {
				c.T = s.dyn.Kinds[s.rng.Intn(len(s.dyn.Kinds))]
				c.Pose = s.rng.Float64()
				changed++
			}
			continue
		}
		if s.rng.Bool(clampProb(s.dyn.DespawnProb)) {
			c.T = Empty
			changed++
			continue
		}
		if s.rng.Bool(clampProb(s.dyn.MoveProb * agitation)) {
			j := s.rng.Intn(len(s.cells))
			if s.cells[j].T == Empty {
				s.cells[j] = *c
				c.T = Empty
				changed += 2
			}
		}
		if s.dyn.PoseDrift > 0 {
			c.Pose += s.rng.Normal(0, s.dyn.PoseDrift)
			c.Pose -= math.Floor(c.Pose) // wrap into [0,1)
			changed++
		}
	}
	s.stir *= 0.85
	m := float64(changed)/float64(len(s.cells))*0.7 + s.dyn.MotionFloor
	if m > 1 {
		m = 1
	}
	// Exponential smoothing keeps motion from flickering frame to frame.
	s.motion = 0.6*s.motion + 0.4*m
	density := float64(s.ObjectCount()) / float64(len(s.cells))
	s.complexity = s.dyn.BaseComplexity * (1 + s.dyn.ComplexityVar*(density-0.4))
	if s.complexity < 0.2 {
		s.complexity = 0.2
	}
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 0.95 {
		return 0.95
	}
	return p
}

// Tick reports how many steps the scene has taken.
func (s *Scene) Tick() int64 { return s.tick }

// Motion reports the smoothed fraction of recent content change, in
// [0,1]. It drives compressibility: high-motion frames compress poorly.
func (s *Scene) Motion() float64 { return s.motion }

// Complexity reports the current render-complexity multiplier (~1.0).
func (s *Scene) Complexity() float64 { return s.complexity }

// ObjectCount reports the number of non-empty cells.
func (s *Scene) ObjectCount() int {
	n := 0
	for _, c := range s.cells {
		if c.T != Empty {
			n++
		}
	}
	return n
}

// Cells returns a copy of the grid (row-major, GridW×GridH).
func (s *Scene) Cells() []Cell {
	out := make([]Cell, len(s.cells))
	copy(out, s.cells[:])
	return out
}
