package vgl

import (
	"testing"

	"pictor/internal/gl"
	"pictor/internal/hw/cpu"
	"pictor/internal/hw/gpu"
	"pictor/internal/hw/pcie"
	"pictor/internal/scene"
	"pictor/internal/sim"
	"pictor/internal/trace"
	"pictor/internal/x11"
)

type env struct {
	k       *sim.Kernel
	ctx     *gl.Context
	display *x11.Display
	proc    *cpu.Proc
	tracer  *trace.Tracer
}

func newEnv() *env {
	k := sim.NewKernel()
	g := gpu.New(k, sim.NewRNG(1))
	gctx := g.NewContext("app", gpu.Profile{BaseRenderMs: 8, SupportsPMU: true})
	gctx.SetActive(true)
	bus := pcie.New(k, 15.75e9)
	c := cpu.New(k, 8, sim.NewRNG(2))
	return &env{
		k:       k,
		ctx:     gl.NewContext(k, gctx, bus.NewClient("app")),
		display: x11.NewDisplay(k, sim.NewRNG(3), 1920, 1080),
		proc:    c.NewProc("app", nil, 0),
		tracer:  trace.New(k),
	}
}

func frame(tags ...uint64) *scene.Frame {
	return &scene.Frame{Width: 1920, Height: 1080, Complexity: 1, Tags: tags}
}

// copyOnce renders a frame and copies it, returning the FC wall time.
func copyOnce(e *env, ip *Interposer, f *scene.Frame) sim.Duration {
	h := e.ctx.SwapBuffers(f, 0)
	ip.OnSwap(h)
	start := e.k.Now()
	var fcEnd sim.Time
	ip.CopyFrame(h, func() { fcEnd = e.k.Now() }, func(*scene.Frame) {})
	e.k.Run()
	return fcEnd.Sub(start)
}

func TestBaselineCopyIncludesAttrRoundTrip(t *testing.T) {
	e := newEnv()
	ip := New(e.k, e.proc, e.display, e.tracer, DefaultOptions())
	fc := copyOnce(e, ip, frame())
	// XGWA 6–9ms + render wait 8ms + DMA + memcpy ≈ ≥ 14ms.
	if fc < 13*sim.Millisecond {
		t.Fatalf("baseline FC = %v, expected the full halting path", fc)
	}
	if ip.AttrCalls() != 1 {
		t.Fatalf("AttrCalls = %d, want 1", ip.AttrCalls())
	}
}

func TestMemoizationSkipsAttrCalls(t *testing.T) {
	e := newEnv()
	opts := DefaultOptions()
	opts.MemoizeAttributes = true
	ip := New(e.k, e.proc, e.display, e.tracer, opts)
	for i := 0; i < 5; i++ {
		copyOnce(e, ip, frame())
	}
	if ip.AttrCalls() != 1 {
		t.Fatalf("memoized AttrCalls = %d over 5 copies, want 1", ip.AttrCalls())
	}
	// A resolution change invalidates the cache.
	e.display.SetResolution(1280, 720)
	copyOnce(e, ip, frame())
	if ip.AttrCalls() != 2 {
		t.Fatalf("AttrCalls after resize = %d, want 2", ip.AttrCalls())
	}
}

func TestOptimizedCopyFasterThanBaseline(t *testing.T) {
	eBase := newEnv()
	base := New(eBase.k, eBase.proc, eBase.display, eBase.tracer, DefaultOptions())
	baseFC := copyOnce(eBase, base, frame())

	eOpt := newEnv()
	opt := New(eOpt.k, eOpt.proc, eOpt.display, eOpt.tracer, Optimized())
	// Warm the attribute cache once.
	copyOnce(eOpt, opt, frame())
	// In the pipeline, FC of a frame runs one AL pass after its swap —
	// by then the async readback has landed. Model that gap.
	h := eOpt.ctx.SwapBuffers(frame(), 0)
	opt.OnSwap(h)
	eOpt.k.RunUntil(eOpt.k.Now().Add(12 * sim.Millisecond))
	start := eOpt.k.Now()
	var fcEnd sim.Time
	opt.CopyFrame(h, func() { fcEnd = eOpt.k.Now() }, func(*scene.Frame) {})
	eOpt.k.Run()
	optFC := fcEnd.Sub(start)

	if optFC >= baseFC {
		t.Fatalf("optimized FC (%v) not faster than baseline (%v)", optFC, baseFC)
	}
	if optFC > 8*sim.Millisecond {
		t.Fatalf("optimized FC = %v, the GPU halt should be gone", optFC)
	}
}

func TestCopyEmbedsTagsInPixels(t *testing.T) {
	e := newEnv()
	ip := New(e.k, e.proc, e.display, e.tracer, DefaultOptions())
	f := frame(41, 42)
	h := e.ctx.SwapBuffers(f, 0)
	var delivered *scene.Frame
	ip.CopyFrame(h, func() {}, func(out *scene.Frame) { delivered = out })
	e.k.Run()
	if delivered == nil {
		t.Fatal("frame never delivered")
	}
	got := trace.ExtractTags(delivered.TagHeader)
	if len(got) != 2 || got[0] != 41 || got[1] != 42 {
		t.Fatalf("tags in header = %v, want [41 42]", got)
	}
}

func TestCopyRecordsFCStage(t *testing.T) {
	e := newEnv()
	ip := New(e.k, e.proc, e.display, e.tracer, DefaultOptions())
	copyOnce(e, ip, frame(7))
	if e.tracer.StageSample(trace.StageFC).N() == 0 {
		t.Fatal("FC stage not recorded")
	}
	if ip.Copies() != 1 {
		t.Fatalf("Copies = %d, want 1", ip.Copies())
	}
}

func TestDisabledTracerStillCopies(t *testing.T) {
	e := newEnv()
	e.tracer.SetEnabled(false)
	ip := New(e.k, e.proc, e.display, e.tracer, DefaultOptions())
	fc := copyOnce(e, ip, frame())
	if fc <= 0 {
		t.Fatal("untraced copy did not run")
	}
	if e.tracer.StageSample(trace.StageFC).N() != 0 {
		t.Fatal("disabled tracer recorded stages")
	}
}
