package scene

import "math"

// glyphs are the 8×8 base intensity patterns for each object type.
// The rasterizer distorts them by pose, so the same object type produces
// substantially different pixels from different viewing angles.
var glyphs [NumTypes][CellPx * CellPx]float64

// ditherTab maps a dither byte to its pixel offset, precomputed with
// exactly the arithmetic the render loop used inline so table lookups
// are bit-identical to the original computation.
var ditherTab [256]float64

func init() {
	for b := 0; b < 256; b++ {
		ditherTab[b] = (float64(b)/255 - 0.5) * 0.06
	}
}

// The dither LCG: n' = n·K + C (mod 2⁶⁴). The render loop is tiled
// 4-wide, so it needs the 1..4-step stride constants: advancing i steps
// is n·Kᵢ + Cᵢ with Kᵢ = Kⁱ and Cᵢ = C·(Kⁱ⁻¹+…+1), exact in uint64
// wrap-around arithmetic — the generated sequence is bit-identical to
// stepping one pixel at a time. (vars, not consts: the products
// overflow Go's arbitrary-precision constant arithmetic.)
var (
	ditherK1 = uint64(6364136223846793005)
	ditherC1 = uint64(1442695040888963407)
	ditherK2 = ditherK1 * ditherK1
	ditherC2 = ditherC1*ditherK1 + ditherC1
	ditherK3 = ditherK2 * ditherK1
	ditherC3 = ditherC2*ditherK1 + ditherC1
	ditherK4 = ditherK3 * ditherK1
	ditherC4 = ditherC3*ditherK1 + ditherC1
)

func init() {
	set := func(t Type, rows [CellPx]string) {
		for y, row := range rows {
			for x := 0; x < CellPx; x++ {
				v := 0.0
				switch row[x] {
				case '#':
					v = 1.0
				case '+':
					v = 0.6
				case '.':
					v = 0.25
				}
				glyphs[t][y*CellPx+x] = v
			}
		}
	}
	set(Track, [CellPx]string{
		"..#..#..",
		"..#..#..",
		".#....#.",
		".#....#.",
		".#....#.",
		"#......#",
		"#......#",
		"#......#",
	})
	set(Vehicle, [CellPx]string{
		"...##...",
		"..####..",
		".######.",
		"########",
		".#.##.#.",
		".######.",
		"..#..#..",
		".##..##.",
	})
	set(Item, [CellPx]string{
		"........",
		"...++...",
		"..+##+..",
		".+####+.",
		".+####+.",
		"..+##+..",
		"...++...",
		"........",
	})
	set(Enemy, [CellPx]string{
		"#......#",
		".#....#.",
		"..####..",
		".##..##.",
		".######.",
		"..####..",
		".#....#.",
		"#......#",
	})
	set(Building, [CellPx]string{
		"..####..",
		".######.",
		".#.##.#.",
		".######.",
		".#.##.#.",
		".######.",
		".#.##.#.",
		"########",
	})
	set(Panel, [CellPx]string{
		"########",
		"#......#",
		"#.++++.#",
		"#......#",
		"#.++++.#",
		"#......#",
		"#......#",
		"########",
	})
	set(Target, [CellPx]string{
		"...##...",
		"..+..+..",
		".+.##.+.",
		"#.####.#",
		"#.####.#",
		".+.##.+.",
		"..+..+..",
		"...##...",
	})
	set(Cloth, [CellPx]string{
		"#+.##.+#",
		"+#+..+#+",
		".+#++#+.",
		"..+##+..",
		"..+##+..",
		".+#++#+.",
		"+#+..+#+",
		"#+.##.+#",
	})
	set(PointCloud, [CellPx]string{
		"#.+.#.+.",
		".+.#.+.#",
		"#.#.+.#.",
		".+.+.#.+",
		"+.#.#.+.",
		".#.+.+.#",
		"#.+.#.#.",
		".+.#.+.+",
	})
}

// Frame is a rendered frame flowing through the cloud rendering system.
// Render fills it with a snapshot of the scene (cells with their poses,
// the tick that seeds the dither, complexity and motion); the
// low-resolution raster the intelligent client analyzes is drawn from
// that snapshot on the first Pixels call, so a frame no driver reads is
// never rasterized. The nominal application resolution (1920×1080×4B)
// determines the data volumes moved over PCIe and the network.
type Frame struct {
	// Seq is the server-side frame number.
	Seq int64
	// Width and Height are the nominal application resolution.
	Width, Height int
	// Complexity and Motion snapshot the scene state that produced the
	// frame (drives render cost and compressibility).
	Complexity float64
	Motion     float64
	// Tags lists the input tags this frame responds to. In the real
	// system the tags are carried inside the frame's leading pixels
	// between hook6 and hook8; TagHeader stands for those pixels.
	Tags []uint64
	// TagHeader is hook6's encoding of Tags (package trace), which hook8
	// decodes on the far side of the IPC boundary. It models the pixels
	// the paper overwrites, without touching the raster.
	TagHeader []byte
	// CompressedBytes is set by the codec at the CP stage.
	CompressedBytes float64
	// Cells snapshots the scene grid that produced the frame. It is the
	// ground truth used to label CNN training data and by the "real
	// human" reference policy (a human perceives the objects directly;
	// the intelligent client must recognize them from Pixels).
	Cells []Cell

	// tick seeds the raster's dither. pixels holds the raster once drawn
	// is set; the buffer is allocated at the first draw and kept across
	// recycling.
	tick   int64
	pixels []float64
	drawn  bool

	// owner is the scene whose free list recycles this frame; nil for
	// hand-built or cloned frames. pooled guards double releases.
	owner  *Scene
	pooled bool
}

// RawBytes reports the uncompressed framebuffer size (RGBA).
func (f *Frame) RawBytes() float64 { return float64(f.Width) * float64(f.Height) * 4 }

// Pixels returns the FrameW×FrameH grayscale raster in [0,1], row-major,
// drawing it from the frame's snapshot on the first call. The draw
// reads nothing but the snapshot, so it gives the same bits whenever it
// happens. The slice belongs to the frame: it is valid until Release.
func (f *Frame) Pixels() []float64 {
	if !f.drawn {
		f.draw()
	}
	return f.pixels
}

// Clone deep-copies the frame (raster, tags and cells), drawing the
// raster first, so the clone keeps it after the original is recycled.
// The clone is detached from any frame pool: releasing it is a no-op.
func (f *Frame) Clone() *Frame {
	px := f.Pixels()
	g := *f
	g.owner = nil
	g.pooled = false
	g.pixels = append([]float64(nil), px...)
	g.Tags = append([]uint64(nil), f.Tags...)
	g.TagHeader = append([]byte(nil), f.TagHeader...)
	g.Cells = append([]Cell(nil), f.Cells...)
	return &g
}

// Release returns the frame to its scene's free list once it has left
// the pipeline (coalesced away at the proxy, or fully consumed by the
// client driver). The consumer that takes ownership of a delivered
// frame calls it; a frame not produced by Scene.Render (tests build
// them by hand, Clone detaches) ignores the call. Double releases are
// no-ops. After Release the frame's buffers belong to the scene again
// and must not be touched.
func (f *Frame) Release() {
	if f.owner == nil || f.pooled {
		return
	}
	f.pooled = true
	f.owner.free = append(f.owner.free, f)
}

// Render snapshots the scene into a frame at the given nominal
// resolution: the cells with their poses, the tick, complexity and
// motion. It draws nothing; Frame.Pixels draws the raster from the
// snapshot when a reader first asks for it.
//
// Frames come from a per-scene free list: a steady-state pipeline that
// releases frames as they leave (vnc coalescing, the client drivers)
// renders without allocating. The pixel, cell, tag and tag-header
// buffers of a recycled frame are reused in place.
func (s *Scene) Render(seq int64, width, height int) *Frame {
	f := s.takeFrame()
	f.Seq = seq
	f.Width = width
	f.Height = height
	f.Complexity = s.Complexity()
	f.Motion = s.Motion()
	f.Cells = append(f.Cells[:0], s.cells[:]...)
	f.tick = s.tick
	return f
}

// takeFrame pops a recycled frame from the free list or allocates a
// fresh one. Reused frames keep their buffer capacity; all metadata is
// reset, and the frame is marked undrawn so its next Pixels call draws
// the new snapshot instead of returning the old raster.
func (s *Scene) takeFrame() *Frame {
	if n := len(s.free); n > 0 {
		f := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		f.pooled = false
		f.drawn = false
		f.Tags = f.Tags[:0]
		f.TagHeader = f.TagHeader[:0]
		f.CompressedBytes = 0
		return f
	}
	return &Frame{owner: s}
}

// draw rasterizes the frame's snapshot into its pixel buffer. Pose
// distorts each glyph: rows shift laterally and the intensity envelope
// rotates, so pixel-exact comparison across frames of the "same" scene
// content fails — the property that breaks DeskBench on 3D
// applications.
func (f *Frame) draw() {
	if f.pixels == nil {
		f.pixels = make([]float64, FrameW*FrameH)
	}
	px := f.pixels
	clear(px)
	memo := f.owner.envMemo()
	for i, c := range f.Cells {
		if c.T != Empty {
			drawGlyph(px, i, c, memo.envelope(i, c.Pose))
		}
	}
	dither(px, f.tick)
	f.drawn = true
}

// dither adds pseudo-random noise keyed by the scene tick: it models
// temporal noise (anti-aliasing, animation sub-frames) without an RNG
// dependency, keeping rendering const with respect to the scene's
// random stream. The 256 possible dither offsets come from a
// precomputed table (bit-identical to computing them inline); this loop
// runs for every pixel of every drawn frame and dominated the render
// profile.
// The clamp uses the builtin float min/max (branch predictors lose on
// random dither signs). v is never NaN and never −0 (a float sum that
// cancels rounds to +0), so this is exactly the old if-v<0/else-if-v>1
// clamp.
// The loop is tiled 4 pixels wide: the LCG's loop-carried multiply chain
// is the bottleneck, and the stride constants let all four lane states
// derive from one base value in parallel (exact modular arithmetic —
// see the constants above), quartering the chain.
func dither(px []float64, tick int64) {
	n := uint64(tick)*2654435761 + 12345
	i := 0
	for ; i+4 <= len(px); i += 4 {
		n1 := n*ditherK1 + ditherC1
		n2 := n*ditherK2 + ditherC2
		n3 := n*ditherK3 + ditherC3
		n4 := n*ditherK4 + ditherC4
		px[i] = min(1, max(0, px[i]+ditherTab[n1>>40&0xFF]))
		px[i+1] = min(1, max(0, px[i+1]+ditherTab[n2>>40&0xFF]))
		px[i+2] = min(1, max(0, px[i+2]+ditherTab[n3>>40&0xFF]))
		px[i+3] = min(1, max(0, px[i+3]+ditherTab[n4>>40&0xFF]))
		n = n4
	}
	for ; i < len(px); i++ {
		n = n*ditherK1 + ditherC1
		px[i] = min(1, max(0, px[i]+ditherTab[n>>40&0xFF]))
	}
}

// envMemo memoizes each cell's pose-dependent intensity envelope —
// eight math.Sin evaluations per glyph — keyed on the exact pose bits,
// so static poses (PoseDrift 0, e.g. menu-heavy or fixed-camera
// workloads) cost no trigonometry after the first draw. A hit returns
// the values computed earlier for the same bits, so draws in any order
// give bit-identical rasters.
type envMemo struct {
	env   [GridW * GridH][CellPx]float64
	pose  [GridW * GridH]uint64
	valid [GridW * GridH]bool
}

// envMemo returns the scene's envelope memo, or a fresh one for a frame
// with no scene (hand-built).
func (s *Scene) envMemo() *envMemo {
	if s == nil {
		return new(envMemo)
	}
	return &s.env
}

// envelope returns cell i's intensity envelope for the given pose.
func (m *envMemo) envelope(i int, pose float64) *[CellPx]float64 {
	bits := math.Float64bits(pose)
	if !m.valid[i] || m.pose[i] != bits {
		phase := pose * 2 * math.Pi
		for y := range m.env[i] {
			// Intensity envelope varies down the glyph with pose
			// ("lighting").
			m.env[i][y] = 0.65 + 0.35*math.Sin(phase+float64(y)*0.7)
		}
		m.pose[i] = bits
		m.valid[i] = true
	}
	return &m.env[i]
}

// drawGlyph rasterizes cell c, at grid index i, into px under the given
// intensity envelope.
func drawGlyph(px []float64, i int, c Cell, env *[CellPx]float64) {
	g := &glyphs[c.T]
	gx, gy := i%GridW, i/GridW
	shift := int(math.Round(c.Pose*6)) - 3 // lateral shift −3..+3
	for y := 0; y < CellPx; y++ {
		envelope := env[y]
		grow := g[y*CellPx : (y+1)*CellPx]
		rowBase := (gy*CellPx+y)*FrameW + gx*CellPx
		for x := 0; x < CellPx; x++ {
			sx := x + shift
			if sx < 0 || sx >= CellPx {
				continue
			}
			v := grow[x] * envelope
			idx := rowBase + sx
			if v > px[idx] {
				px[idx] = v
			}
		}
	}
}

// Similarity reports mean per-pixel agreement between two rasters in
// [0,1] (1 = identical). DeskBench's replay gate uses this.
func Similarity(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var diff float64
	for i := range a {
		diff += math.Abs(a[i] - b[i])
	}
	return 1 - diff/float64(len(a))
}
