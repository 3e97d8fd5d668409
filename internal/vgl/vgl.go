// Package vgl models the graphics interposer (VirtualGL in the paper's
// testbed): the library that intercepts the application's buffer swaps,
// copies rendered frames from the GPU to host memory (the FC stage —
// the bottleneck §5.1.2 uncovers), and hands them to the server proxy
// (the AS stage via XShmPutImage).
//
// It implements both §6 optimizations:
//
//  1. XGetWindowAttributes memoization — the baseline interposer calls
//     this 6–9 ms round trip before *every* frame copy just to learn the
//     (rarely changing) resolution; the optimization caches it and
//     invalidates on X resize events.
//  2. Two-step asynchronous frame copy — the baseline halts the
//     application thread waiting for the GPU to deliver the frame;
//     the optimization splits the copy into FCStart (queue the DMA right
//     after the swap) and FCEnd (collect the already-landed buffer one
//     pass later), removing the halt.
package vgl

import (
	"pictor/internal/gl"
	"pictor/internal/hw/cpu"
	"pictor/internal/scene"
	"pictor/internal/sim"
	"pictor/internal/trace"
	"pictor/internal/x11"
)

// Options selects interposer behaviour.
type Options struct {
	// MemoizeAttributes enables §6 optimization 1.
	MemoizeAttributes bool
	// AsyncCopy enables §6 optimization 2.
	AsyncCopy bool
	// QueryDoubleBuffer enables the analysis framework's double-buffered
	// GPU time queries (on in the default framework; the overhead
	// ablation turns it off).
	QueryDoubleBuffer bool
	// MemcpyMsPerMB is host-side copy cost into the shared segment.
	MemcpyMsPerMB float64
	// ReadDriverMs is fixed glReadPixels driver overhead per frame.
	ReadDriverMs float64
}

// DefaultOptions is the unoptimized TurboVNC/VirtualGL baseline with
// the analysis framework's recommended double-buffered queries.
func DefaultOptions() Options {
	return Options{
		MemoizeAttributes: false,
		AsyncCopy:         false,
		QueryDoubleBuffer: true,
		MemcpyMsPerMB:     0.42,
		ReadDriverMs:      1.15,
	}
}

// Optimized returns DefaultOptions with both §6 optimizations on.
func Optimized() Options {
	o := DefaultOptions()
	o.MemoizeAttributes = true
	o.AsyncCopy = true
	return o
}

// Interposer performs frame copies for one application.
type Interposer struct {
	k       *sim.Kernel
	proc    *cpu.Proc // application process (FC runs on the app thread)
	display *x11.Display
	tracer  *trace.Tracer
	opts    Options

	cachedW, cachedH int
	cachedEpoch      int64
	attrsCached      bool

	attrCalls int64 // actual XGetWindowAttributes round trips
	copies    int64

	// The FC copy in flight. One runs at a time, on the application
	// thread, so its state lives here.
	fcHandle    *gl.RenderHandle
	fcStart     sim.Time
	fcMemcpy    sim.Duration
	fcFinished  func()
	fcDelivered func(f *scene.Frame)

	// The copy's steps, method values bound once in New.
	attrsServed, framebufferRead, startMemcpy, copied func()
	attrsFetched                                      func(w, h int)
}

// New creates an interposer.
func New(k *sim.Kernel, proc *cpu.Proc, display *x11.Display, tracer *trace.Tracer, opts Options) *Interposer {
	if opts.MemcpyMsPerMB <= 0 {
		opts.MemcpyMsPerMB = 0.20
	}
	if opts.ReadDriverMs <= 0 {
		opts.ReadDriverMs = 0.45
	}
	ip := &Interposer{k: k, proc: proc, display: display, tracer: tracer, opts: opts}
	ip.attrsServed, ip.framebufferRead = ip.readFramebuffer, ip.afterRead
	ip.startMemcpy, ip.copied = ip.memcpy, ip.finishCopy
	ip.attrsFetched = ip.cacheAttributes
	return ip
}

// AttrCalls reports how many real XGetWindowAttributes round trips were
// made (the memoization ablation checks this collapses to ~1).
func (ip *Interposer) AttrCalls() int64 { return ip.attrCalls }

// Copies reports completed frame copies.
func (ip *Interposer) Copies() int64 { return ip.copies }

// OnSwap is the SwapBuffers intercept. The application calls it right
// after submitting frame h; with AsyncCopy the interposer immediately
// queues h's readback (FCStart).
func (ip *Interposer) OnSwap(h *gl.RenderHandle) {
	if ip.opts.AsyncCopy {
		h.StartAsyncRead()
	}
}

// CopyFrame executes the FC stage for the given (previous) frame handle
// on the application thread: when finished() fires the app may proceed
// to its next AL pass, and delivered(frame) fires on the AS path with
// the host-memory copy of the frame. At hook6 the frame's tags are
// encoded into its tag header, which stands for the leading pixels the
// paper overwrites; an untagged frame gets a count of 0. The raster is
// not read or drawn. The handle goes back to its GL context before
// finished runs, so the caller must not use it afterwards.
//
// One copy runs at a time, as on the application thread: CopyFrame
// must not be called again before finished has run.
//
// Baseline sequence: XGetWindowAttributes → wait GPU → DMA → memcpy.
// Optimized: (cached attributes) → collect already-landed DMA → memcpy.
func (ip *Interposer) CopyFrame(h *gl.RenderHandle, finished func(), delivered func(f *scene.Frame)) {
	if ip.fcHandle != nil {
		panic("vgl: CopyFrame while another copy is in flight")
	}
	ip.fcHandle, ip.fcStart = h, ip.k.Now()
	ip.fcFinished, ip.fcDelivered = finished, delivered
	ip.getAttributes()
}

// readFramebuffer reads the frame back once the window size is known.
// The frame is copied at the *current* window size.
func (ip *Interposer) readFramebuffer() {
	if ip.opts.AsyncCopy {
		ip.fcHandle.FinishAsyncRead(ip.framebufferRead)
	} else {
		ip.fcHandle.ReadPixels(ip.framebufferRead)
	}
}

// afterRead reads the GPU time query, then runs the memcpy into the
// shared segment.
func (ip *Interposer) afterRead() {
	h := ip.fcHandle
	// Query-result read for the GPU time measurement.
	stall := sim.Duration(0)
	if ip.tracer.Enabled() {
		stall = h.QueryStall(ip.opts.QueryDoubleBuffer)
	}
	// hook6: encode the frame's tags into its tag header.
	ip.fcMemcpy = sim.DurationOfSeconds(h.Frame.RawBytes()/1e6*ip.opts.MemcpyMsPerMB/1e3) +
		sim.DurationOfSeconds(ip.opts.ReadDriverMs/1e3) + ip.tracer.HookCost()
	ip.k.After(stall, ip.startMemcpy)
}

func (ip *Interposer) memcpy() { ip.proc.Run(ip.fcMemcpy, ip.copied) }

// finishCopy completes the copy at hook6. It clears the copy in flight
// and releases the handle before it calls finished, which may start
// the next copy.
func (ip *Interposer) finishCopy() {
	h, start, finished, delivered := ip.fcHandle, ip.fcStart, ip.fcFinished, ip.fcDelivered
	ip.fcHandle, ip.fcFinished, ip.fcDelivered = nil, nil, nil
	frame := h.Frame
	h.Release()
	frame.TagHeader = trace.EmbedTags(frame.TagHeader, frame.Tags)
	ip.copies++
	ip.tracer.AddStage(trace.StageFC, ip.k.Now().Sub(start), frame.Tags...)
	finished()
	delivered(frame)
}

// getAttributes resolves the window size, through the cache when
// memoization is enabled and the resolution epoch is unchanged, then
// reads the framebuffer.
func (ip *Interposer) getAttributes() {
	if ip.opts.MemoizeAttributes && ip.attrsCached && ip.cachedEpoch == ip.display.ResolutionEpoch() {
		// Served from cache: just the intercept's own cost.
		ip.proc.Run(30*sim.Microsecond, ip.attrsServed)
		return
	}
	ip.attrCalls++
	ip.display.GetWindowAttributes(ip.proc, ip.attrsFetched)
}

// cacheAttributes memoizes the size a real round trip returned.
func (ip *Interposer) cacheAttributes(w, h int) {
	ip.cachedW, ip.cachedH = w, h
	ip.cachedEpoch = ip.display.ResolutionEpoch()
	ip.attrsCached = true
	ip.readFramebuffer()
}
