// Package gl models the OpenGL surface the cloud rendering stack
// drives: buffer swaps that submit GPU work (hook5), synchronous and
// asynchronous (PBO-style) pixel readback over PCIe (hook6 — the FC
// stage), and GPU time queries with the single- vs double-buffered
// behaviour whose overhead the paper measures.
package gl

import (
	"pictor/internal/hw/gpu"
	"pictor/internal/hw/pcie"
	"pictor/internal/scene"
	"pictor/internal/sim"
)

// Context is one application's GL context. It recycles its render
// handles through free: a handle goes back with Release once its frame
// has been copied, so a steady-state swap allocates nothing.
type Context struct {
	k    *sim.Kernel
	gctx *gpu.Context
	bus  *pcie.Client
	free *RenderHandle // released handles
}

// NewContext binds a GL context to a GPU rendering context and a PCIe
// traffic account.
func NewContext(k *sim.Kernel, gctx *gpu.Context, bus *pcie.Client) *Context {
	return &Context{k: k, gctx: gctx, bus: bus}
}

// RenderHandle tracks one in-flight frame through render and readback.
// Handles are recycled: the render and readback steps are method values
// bound once, when the handle is built, and the waiter lists keep their
// storage, so a recycled handle allocates nothing.
type RenderHandle struct {
	ctx   *Context
	Frame *scene.Frame

	submitted    sim.Time
	finished     sim.Time
	renderDone   bool
	renderWaiter []func()

	readStarted bool
	readDone    bool
	readWaiter  []func()

	// syncDone is the pending ReadPixels' continuation.
	syncDone func()

	// The steps of render and readback, method values bound once per
	// handle.
	rendered, syncDMA, syncLanded, asyncDMA, asyncLanded func()

	next *RenderHandle // next free handle
}

// SwapBuffers submits the frame for rendering (hook5) and returns a
// handle. Upload traffic for the frame's changed scene data is charged
// to the CPU→GPU PCIe direction (uploadBytes; STK's drastically changing
// frames make this large).
func (c *Context) SwapBuffers(f *scene.Frame, uploadBytes float64) *RenderHandle {
	h := c.free
	if h == nil {
		h = &RenderHandle{ctx: c}
		h.rendered = h.renderFinished
		h.syncDMA, h.syncLanded = h.startSyncDMA, h.syncDMALanded
		h.asyncDMA, h.asyncLanded = h.startAsyncDMA, h.asyncDMALanded
	} else {
		c.free = h.next
		h.next = nil
	}
	h.Frame = f
	h.submitted, h.finished = c.k.Now(), 0
	h.renderDone, h.readStarted, h.readDone = false, false, false
	if uploadBytes > 0 {
		c.bus.Transfer(pcie.ToGPU, uploadBytes, func() {})
	}
	c.gctx.Render(f.Complexity, h.rendered)
	return h
}

// Release returns the handle to its context for reuse by a later
// SwapBuffers. The caller must hold no further reference to it, and
// nothing may still wait on it: the interposer releases a handle when
// its frame copy completes, the handle's last use. A handle never
// released (a run's last frame, never copied) is dropped with its
// context.
func (h *RenderHandle) Release() {
	h.Frame = nil
	h.next, h.ctx.free = h.ctx.free, h
}

// renderFinished marks the render done and wakes its waiters, each as
// a fresh event.
func (h *RenderHandle) renderFinished() {
	k := h.ctx.k
	h.renderDone = true
	h.finished = k.Now()
	for _, fn := range h.renderWaiter {
		k.After(0, fn)
	}
	clear(h.renderWaiter)
	h.renderWaiter = h.renderWaiter[:0]
}

// OnRenderDone invokes fn when the GPU finishes the frame (immediately,
// as a fresh event, if already done).
func (h *RenderHandle) OnRenderDone(fn func()) {
	if h.renderDone {
		h.ctx.k.After(0, fn)
		return
	}
	h.renderWaiter = append(h.renderWaiter, fn)
}

// RenderDone reports whether the GPU has finished the frame.
func (h *RenderHandle) RenderDone() bool { return h.renderDone }

// RenderLatency reports submit→finish time (the interval a hook5→hook6
// GPU time query measures). Zero until the render completes.
func (h *RenderHandle) RenderLatency() sim.Duration {
	if !h.renderDone {
		return 0
	}
	return h.finished.Sub(h.submitted)
}

// ReadPixels performs a synchronous glReadPixels: wait for the render,
// DMA the framebuffer over PCIe (GPU→CPU), then done. This is the
// baseline (halting) frame-copy path. A handle carries one pending
// ReadPixels at a time, as a frame gets one glReadPixels: a second
// call before the first's done has run panics.
func (h *RenderHandle) ReadPixels(done func()) {
	if h.syncDone != nil {
		panic("gl: ReadPixels while another is pending on the handle")
	}
	h.syncDone = done
	h.OnRenderDone(h.syncDMA)
}

// startSyncDMA starts the synchronous read's DMA.
func (h *RenderHandle) startSyncDMA() {
	h.ctx.bus.Transfer(pcie.FromGPU, h.Frame.RawBytes(), h.syncLanded)
}

// syncDMALanded completes ReadPixels. It clears syncDone before
// calling it, so done may issue the next ReadPixels.
func (h *RenderHandle) syncDMALanded() {
	done := h.syncDone
	h.syncDone = nil
	h.readDone = true
	done()
}

// StartAsyncRead begins a PBO-style asynchronous readback: the DMA is
// queued behind the render and proceeds without CPU involvement. This
// is the first half of §6's two-step copy optimization (FCStart).
func (h *RenderHandle) StartAsyncRead() {
	if h.readStarted {
		return
	}
	h.readStarted = true
	h.OnRenderDone(h.asyncDMA)
}

// startAsyncDMA queues the asynchronous read's DMA.
func (h *RenderHandle) startAsyncDMA() {
	h.ctx.bus.Transfer(pcie.FromGPU, h.Frame.RawBytes(), h.asyncLanded)
}

// asyncDMALanded marks the asynchronous read landed and wakes its
// waiters, each as a fresh event.
func (h *RenderHandle) asyncDMALanded() {
	h.readDone = true
	for _, fn := range h.readWaiter {
		h.ctx.k.After(0, fn)
	}
	clear(h.readWaiter)
	h.readWaiter = h.readWaiter[:0]
}

// FinishAsyncRead waits (usually not at all) for the asynchronous
// readback to land, then calls done — the second half (FCEnd) of the
// two-step copy. Calling it without StartAsyncRead starts the read.
func (h *RenderHandle) FinishAsyncRead(done func()) {
	if !h.readStarted {
		h.StartAsyncRead()
	}
	if h.readDone {
		h.ctx.k.After(0, done)
		return
	}
	h.readWaiter = append(h.readWaiter, done)
}

// ReadDone reports whether the framebuffer has landed in host memory.
func (h *RenderHandle) ReadDone() bool { return h.readDone }

// QueryStall reports the CPU stall incurred by reading this frame's GPU
// time query. With double buffering the application reads the previous
// frame's (ready) result and pays only a sync cost; single-buffered it
// blocks until this frame's render completes — the behaviour behind the
// paper's up-to-10% overhead without double buffers.
func (h *RenderHandle) QueryStall(doubleBuffered bool) sim.Duration {
	if doubleBuffered {
		return 60 * sim.Microsecond
	}
	if h.renderDone {
		return 250 * sim.Microsecond
	}
	// Remaining render time must be waited out. Estimate with the
	// frame's nominal cost; the caller charges this as wall stall.
	return sim.DurationOfSeconds(h.ctx.gctx.Profile().BaseRenderMs * 0.6 / 1e3)
}
