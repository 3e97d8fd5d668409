package gl

import (
	"testing"

	"pictor/internal/hw/gpu"
	"pictor/internal/hw/pcie"
	"pictor/internal/scene"
	"pictor/internal/sim"
)

func testEnv() (*sim.Kernel, *Context, *pcie.Client) {
	k := sim.NewKernel()
	g := gpu.New(k, sim.NewRNG(1))
	ctx := g.NewContext("app", gpu.Profile{
		BaseRenderMs: 8, BaseL2Miss: 0.3, TexMiss: 0.2, SupportsPMU: true,
	})
	ctx.SetActive(true)
	bus := pcie.New(k, 1e9)
	cl := bus.NewClient("app")
	return k, NewContext(k, ctx, cl), cl
}

func testFrame() *scene.Frame {
	return &scene.Frame{Width: 1920, Height: 1080, Complexity: 1}
}

func TestSwapBuffersRenders(t *testing.T) {
	k, ctx, _ := testEnv()
	h := ctx.SwapBuffers(testFrame(), 0)
	if h.RenderDone() {
		t.Fatal("render done before any time passed")
	}
	k.Run()
	if !h.RenderDone() {
		t.Fatal("render never completed")
	}
	if lat := h.RenderLatency(); lat != 8*sim.Millisecond {
		t.Fatalf("render latency = %v, want 8ms", lat)
	}
}

func TestOnRenderDoneAfterCompletion(t *testing.T) {
	k, ctx, _ := testEnv()
	h := ctx.SwapBuffers(testFrame(), 0)
	k.Run()
	fired := false
	h.OnRenderDone(func() { fired = true })
	k.Run()
	if !fired {
		t.Fatal("late OnRenderDone never fired")
	}
}

func TestReadPixelsWaitsForRenderThenDMA(t *testing.T) {
	k, ctx, cl := testEnv()
	h := ctx.SwapBuffers(testFrame(), 0)
	var done sim.Time
	h.ReadPixels(func() { done = k.Now() })
	k.Run()
	// 8ms render + DMA setup + 8.29MB over 1GB/s ≈ 8.3ms.
	if ms := done.Millis(); ms < 16 || ms > 18 {
		t.Fatalf("readback finished at %vms, want ~16.5ms", ms)
	}
	_, down := cl.Bytes()
	if down != testFrame().RawBytes() {
		t.Fatalf("PCIe moved %v bytes, want the framebuffer (%v)", down, testFrame().RawBytes())
	}
}

func TestAsyncReadOverlapsRender(t *testing.T) {
	k, ctx, _ := testEnv()
	h := ctx.SwapBuffers(testFrame(), 0)
	h.StartAsyncRead()
	k.Run()
	if !h.ReadDone() {
		t.Fatal("async read never landed")
	}
	// FinishAsyncRead after landing is (nearly) free.
	start := k.Now()
	var fin sim.Time
	h.FinishAsyncRead(func() { fin = k.Now() })
	k.Run()
	if fin.Sub(start) > sim.Millisecond {
		t.Fatalf("finish of landed read took %v", fin.Sub(start))
	}
}

func TestFinishWithoutStartStartsRead(t *testing.T) {
	k, ctx, _ := testEnv()
	h := ctx.SwapBuffers(testFrame(), 0)
	done := false
	h.FinishAsyncRead(func() { done = true })
	k.Run()
	if !done {
		t.Fatal("FinishAsyncRead without StartAsyncRead never completed")
	}
}

func TestUploadChargesPCIe(t *testing.T) {
	k, ctx, cl := testEnv()
	ctx.SwapBuffers(testFrame(), 2e6)
	k.Run()
	up, _ := cl.Bytes()
	if up != 2e6 {
		t.Fatalf("upload bytes = %v, want 2e6", up)
	}
}

func TestQueryStallBehaviour(t *testing.T) {
	k, ctx, _ := testEnv()
	h := ctx.SwapBuffers(testFrame(), 0)
	// Double-buffered: tiny fixed cost even mid-render.
	if s := h.QueryStall(true); s > sim.Millisecond {
		t.Fatalf("double-buffered query stall = %v", s)
	}
	// Single-buffered mid-render: a real stall.
	mid := h.QueryStall(false)
	if mid < sim.Millisecond {
		t.Fatalf("single-buffered mid-render stall = %v, want milliseconds", mid)
	}
	k.Run()
	// Single-buffered after completion: cheap.
	if s := h.QueryStall(false); s >= mid {
		t.Fatalf("post-render stall (%v) should undercut mid-render (%v)", s, mid)
	}
}

// TestReleasedHandleIsReusedClean: a released handle comes back from
// the next SwapBuffers with none of its old frame's render or readback
// state, and runs the new frame's render and readback in full.
func TestReleasedHandleIsReusedClean(t *testing.T) {
	k, ctx, _ := testEnv()
	h := ctx.SwapBuffers(testFrame(), 0)
	h.StartAsyncRead()
	k.Run()
	if !h.ReadDone() {
		t.Fatal("async read never landed")
	}
	h.Release()
	start := k.Now()
	f := testFrame()
	h2 := ctx.SwapBuffers(f, 0)
	if h2 != h {
		t.Fatal("SwapBuffers built a new handle beside a released one")
	}
	if h2.Frame != f || h2.RenderDone() || h2.ReadDone() || h2.RenderLatency() != 0 {
		t.Fatalf("recycled handle kept old state: frame %p (want %p), render %v, read %v, latency %v",
			h2.Frame, f, h2.RenderDone(), h2.ReadDone(), h2.RenderLatency())
	}
	var done sim.Time
	h2.FinishAsyncRead(func() { done = k.Now() })
	k.Run()
	if lat := h2.RenderLatency(); lat != 8*sim.Millisecond {
		t.Fatalf("recycled handle's render latency = %v, want 8ms", lat)
	}
	if !h2.ReadDone() || done.Sub(start) < 16*sim.Millisecond {
		t.Fatalf("recycled handle's read landed at +%v (done %v), want render then DMA", done.Sub(start), h2.ReadDone())
	}
}

// TestRecycledHandleAllocatesNothing: swap, synchronous readback and
// release allocate nothing once the context has a free handle.
func TestRecycledHandleAllocatesNothing(t *testing.T) {
	k, ctx, _ := testEnv()
	f := testFrame()
	reads := 0
	done := func() { reads++ }
	if a := testing.AllocsPerRun(100, func() {
		h := ctx.SwapBuffers(f, 1e6)
		h.ReadPixels(done)
		k.Run()
		h.Release()
	}); a != 0 {
		t.Fatalf("swap, ReadPixels and Release made %v allocations, want 0", a)
	}
	if reads != 101 {
		t.Fatalf("%d reads completed, want 101", reads)
	}
}

// TestSecondPendingReadPixelsPanics: a handle carries one pending
// ReadPixels, as a frame gets one glReadPixels.
func TestSecondPendingReadPixelsPanics(t *testing.T) {
	_, ctx, _ := testEnv()
	h := ctx.SwapBuffers(testFrame(), 0)
	h.ReadPixels(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("a second pending ReadPixels did not panic")
		}
	}()
	h.ReadPixels(func() {})
}
