// Package app models a cloud-rendered interactive 3D application: the
// software pipeline of Figure 5, where the main thread alternates
// application logic (AL) with the copy of the previous frame (FC), the
// GPU renders (RD) in parallel, and a second thread ships finished
// frames to the server proxy (AS).
package app

import (
	"pictor/internal/gl"
	"pictor/internal/hw/cpu"
	"pictor/internal/scene"
	"pictor/internal/sim"
	"pictor/internal/trace"
	"pictor/internal/vgl"
	"pictor/internal/x11"
)

// Mode selects the pipeline discipline.
type Mode int

const (
	// ModeNormal is the full software pipeline of Figure 5.
	ModeNormal Mode = iota
	// ModeSlowMotion serializes the system the way the Slow-Motion
	// methodology does: one input is admitted, fully processed
	// (AL → RD → FC → AS → CP → SS), displayed, and only then may the
	// next input be processed. Pipeline parallelism — and its resource
	// contention — disappears, which is exactly the behaviour change
	// the paper criticizes.
	ModeSlowMotion
)

// App is one running 3D application.
type App struct {
	k       *sim.Kernel
	rng     *sim.RNG
	prof    Profile
	proc    *cpu.Proc
	sc      *scene.Scene
	glctx   *gl.Context
	ip      *vgl.Interposer
	display *x11.Display
	tracer  *trace.Tracer
	mode    Mode

	// sendFrame is the AS destination (the server proxy's HandleFrame).
	sendFrame func(*scene.Frame)

	running  bool
	frameSeq int64
	prev     *gl.RenderHandle

	// tagsBuf is the drain scratch: tags live here from drainInputs
	// until swap copies them into the frame, within the same pass.
	tagsBuf []uint64

	// Slow-motion bookkeeping.
	smPollEvery sim.Duration

	// The pass in flight. Passes run one at a time, so their state
	// lives here: alStart is the AL stage's start; in slow motion,
	// smHandle is the frame being rendered, and smFrame and smASStart
	// the copied frame on its way through AS.
	alStart   sim.Time
	smHandle  *gl.RenderHandle
	smFrame   *scene.Frame
	smASStart sim.Time

	// The passes' steps, method values bound once in New.
	loopFn, alDone, nextPass func()
	smLoopFn, smALDone       func()
	smRendered, smASDone     func()
	deliverAS, smDeliverAS   func(f *scene.Frame)

	// AS hand-offs and RD-stage callbacks can overlap the next pass, so
	// each in flight has a record from a free list.
	freeAS *asSend
	freeRD *rdStage
}

// asSend is the record of one AS hand-off in flight, recycled through
// App.freeAS. fire is the method value s.sent, bound once when the
// record is built.
type asSend struct {
	a     *App
	f     *scene.Frame
	start sim.Time
	fire  func()
	next  *asSend
}

// rdStage is the record of one frame's RD-stage callback, recycled
// through App.freeRD. fire is the method value r.rendered, bound once
// when the record is built.
type rdStage struct {
	a    *App
	h    *gl.RenderHandle
	fire func()
	next *rdStage
}

// Config assembles an App.
type Config struct {
	Kernel     *sim.Kernel
	RNG        *sim.RNG
	Profile    Profile
	Proc       *cpu.Proc
	GL         *gl.Context
	Interposer *vgl.Interposer
	Display    *x11.Display
	Tracer     *trace.Tracer
	Mode       Mode
	SendFrame  func(*scene.Frame)
}

// New creates an application instance (stopped; call Start).
func New(cfg Config) *App {
	a := &App{
		k:           cfg.Kernel,
		rng:         cfg.RNG.Fork("app-" + cfg.Profile.Name),
		prof:        cfg.Profile,
		proc:        cfg.Proc,
		glctx:       cfg.GL,
		ip:          cfg.Interposer,
		display:     cfg.Display,
		tracer:      cfg.Tracer,
		mode:        cfg.Mode,
		sendFrame:   cfg.SendFrame,
		smPollEvery: 4 * sim.Millisecond,
	}
	a.sc = scene.New(cfg.Profile.Dynamics, a.rng)
	a.loopFn, a.alDone, a.nextPass = a.loop, a.alFinished, a.scheduleLoop
	a.smLoopFn, a.smALDone = a.slowMotionLoop, a.smALFinished
	a.smRendered, a.smASDone = a.smCopy, a.smASFinished
	a.deliverAS, a.smDeliverAS = a.dispatchAS, a.smAS
	return a
}

// Frames reports how many frames the app has produced.
func (a *App) Frames() int64 { return a.frameSeq }

// Start launches the pipeline loop.
func (a *App) Start() {
	if a.running {
		return
	}
	a.running = true
	a.proc.Start()
	if a.mode == ModeSlowMotion {
		a.k.After(0, a.smLoopFn)
		return
	}
	a.k.After(0, a.loopFn)
}

// Stop halts the pipeline after the current pass.
func (a *App) Stop() {
	a.running = false
	a.proc.Stop()
}

// drainInputs empties the X queue (hook4) and reduces it to the frame's
// tag list and the dominant action. The returned tag slice is the app's
// reused scratch: it is valid until the next drainInputs (swap copies
// it into the frame within the same pipeline pass).
func (a *App) drainInputs() (tags []uint64, act scene.Action) {
	act = scene.ActNone
	tags = a.tagsBuf[:0]
	for _, in := range a.display.Drain() {
		if in.Tag != 0 {
			tags = append(tags, in.Tag)
		}
		if in.Action != scene.ActNone {
			act = in.Action
		}
	}
	a.tagsBuf = tags
	return tags, act
}

// alWork prices one application-logic pass. The coupling says how much
// of the logic cost tracks scene complexity (an RTS simulating armies
// is far more scene-bound than a racer's fixed physics loop). The
// profile's value is honored as-is: Register stamps the documented
// 0.25 default onto unset profiles, so there is no hidden runtime
// coercion — an explicitly tiny (or zero, for hand-built profiles)
// coupling really runs that way. The conversions round each product,
// so no architecture fuses one into the add that follows it.
func (a *App) alWork(nInputs int) sim.Duration {
	c := a.prof.ALComplexityCoupling
	scale := (1 - c) + float64(c*a.sc.Complexity())
	ms := float64(a.prof.ALBaseMs*scale) + float64(a.prof.ALPerInputMs*float64(nInputs))
	d := sim.DurationOfSeconds(ms / 1e3)
	return a.rng.Jitter(d, a.prof.ALJitter) + a.tracer.HookCost()
}

// loop is one pass of the normal pipeline: AL_i, swap (RD_i starts),
// then FC_{i-1}, then the next pass.
func (a *App) loop() {
	if !a.running {
		return
	}
	tags, act := a.drainInputs()
	a.sc.Step(act)
	a.alStart = a.k.Now()
	a.proc.Run(a.alWork(len(tags)), a.alDone)
}

// alFinished ends AL_i: it swaps (RD_i starts) and copies the previous
// frame, whose delivery runs AS on the side.
func (a *App) alFinished() {
	tags := a.tagsBuf
	a.tracer.AddStage(trace.StageAL, a.k.Now().Sub(a.alStart), tags...)
	h := a.swap(tags)
	prev := a.prev
	a.prev = h
	if prev == nil {
		a.scheduleLoop()
		return
	}
	a.ip.CopyFrame(prev, a.nextPass, a.deliverAS)
}

// scheduleLoop queues the next pass as a fresh event.
func (a *App) scheduleLoop() { a.k.After(0, a.loopFn) }

// swap renders the current scene into a frame and submits it (hook5).
func (a *App) swap(tags []uint64) *gl.RenderHandle {
	a.frameSeq++
	f := a.sc.Render(a.frameSeq, a.prof.Width, a.prof.Height)
	// tags is the drain scratch; the frame owns (recycled) tag storage.
	f.Tags = append(f.Tags[:0], tags...)
	upload := a.prof.UploadMBPerFrame * (0.3 + a.sc.Motion()) * 1e6
	h := a.glctx.SwapBuffers(f, upload)
	r := a.freeRD
	if r == nil {
		r = &rdStage{a: a}
		r.fire = r.rendered
	} else {
		a.freeRD = r.next
	}
	r.h = h
	h.OnRenderDone(r.fire)
	a.ip.OnSwap(h)
	return h
}

// rendered records the frame's RD stage. The handle is still the
// frame's here: it goes back to the GL context only when the frame has
// been copied, which waits for the render.
func (r *rdStage) rendered() {
	a, h := r.a, r.h
	r.h = nil
	r.next, a.freeRD = a.freeRD, r
	a.tracer.AddStage(trace.StageRD, h.RenderLatency(), h.Frame.Tags...)
}

// dispatchAS ships a copied frame to the server proxy on the AS thread
// (XShmPutImage — hook7). It does not block the pipeline loop.
func (a *App) dispatchAS(f *scene.Frame) {
	asStart := a.k.Now()
	work := a.asCost(f) + a.tracer.HookCost()
	s := a.freeAS
	if s == nil {
		s = &asSend{a: a}
		s.fire = s.sent
	} else {
		a.freeAS = s.next
	}
	s.f, s.start = f, asStart
	a.proc.Run(work, s.fire)
}

// asCost prices one frame's AS hand-off, before any hook cost.
func (a *App) asCost(f *scene.Frame) sim.Duration {
	ms := (a.prof.ASBaseMs + a.prof.ASPerMBMs*f.RawBytes()/1e6) * (1 + a.prof.IPCTax)
	return sim.DurationOfSeconds(ms / 1e3)
}

// sent ends one AS hand-off. It recycles s before it calls out.
func (s *asSend) sent() {
	a, f, start := s.a, s.f, s.start
	s.f = nil
	s.next, a.freeAS = a.freeAS, s
	a.tracer.AddStage(trace.StageAS, a.k.Now().Sub(start), f.Tags...)
	if a.sendFrame != nil {
		a.sendFrame(f)
	}
}

// slowMotionLoop admits one input at a time and fully serializes its
// processing; with no queued input it idles (no frames are produced),
// drastically altering the system's behaviour — the methodology's flaw.
func (a *App) slowMotionLoop() {
	if !a.running {
		return
	}
	if a.display.Pending() == 0 {
		a.k.After(a.smPollEvery, a.smLoopFn)
		return
	}
	tags, act := a.drainInputs()
	a.sc.Step(act)
	a.alStart = a.k.Now()
	a.proc.Run(a.alWork(len(tags)), a.smALDone)
}

// smALFinished swaps, then waits for the render: fully sequential, the
// pass copies this very frame, ships it, and only then looks for the
// next input.
func (a *App) smALFinished() {
	tags := a.tagsBuf
	a.tracer.AddStage(trace.StageAL, a.k.Now().Sub(a.alStart), tags...)
	a.smHandle = a.swap(tags)
	a.smHandle.OnRenderDone(a.smRendered)
}

// smCopy copies the rendered frame; the pass goes on from its delivery.
func (a *App) smCopy() {
	h := a.smHandle
	a.smHandle = nil
	a.ip.CopyFrame(h, func() {}, a.smDeliverAS)
}

// smAS ships the copied frame. Unlike dispatchAS it charges no hook-7
// cost.
func (a *App) smAS(f *scene.Frame) {
	a.smFrame, a.smASStart = f, a.k.Now()
	a.proc.Run(a.asCost(f), a.smASDone)
}

// smASFinished hands the frame to the server proxy and looks for the
// next input.
func (a *App) smASFinished() {
	f := a.smFrame
	a.smFrame = nil
	a.tracer.AddStage(trace.StageAS, a.k.Now().Sub(a.smASStart), f.Tags...)
	if a.sendFrame != nil {
		a.sendFrame(f)
	}
	a.k.After(0, a.smLoopFn)
}
