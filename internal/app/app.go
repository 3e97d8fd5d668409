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
		a.k.After(0, a.slowMotionLoop)
		return
	}
	a.k.After(0, a.loop)
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
// coupling really runs that way.
func (a *App) alWork(nInputs int) sim.Duration {
	c := a.prof.ALComplexityCoupling
	ms := a.prof.ALBaseMs*((1-c)+c*a.sc.Complexity()) + a.prof.ALPerInputMs*float64(nInputs)
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
	alStart := a.k.Now()
	a.proc.Run(a.alWork(len(tags)), func() {
		a.tracer.AddStage(trace.StageAL, a.k.Now().Sub(alStart), tags...)
		h := a.swap(tags)
		prev := a.prev
		a.prev = h
		if prev == nil {
			a.k.After(0, a.loop)
			return
		}
		a.ip.CopyFrame(prev,
			func() { a.k.After(0, a.loop) },
			func(f *scene.Frame) { a.dispatchAS(f) })
	})
}

// swap renders the current scene into a frame and submits it (hook5).
func (a *App) swap(tags []uint64) *gl.RenderHandle {
	a.frameSeq++
	f := a.sc.Render(a.frameSeq, a.prof.Width, a.prof.Height)
	// tags is the drain scratch; the frame owns (recycled) tag storage.
	f.Tags = append(f.Tags[:0], tags...)
	upload := a.prof.UploadMBPerFrame * (0.3 + a.sc.Motion()) * 1e6
	h := a.glctx.SwapBuffers(f, upload)
	h.OnRenderDone(func() {
		a.tracer.AddStage(trace.StageRD, h.RenderLatency(), f.Tags...)
	})
	a.ip.OnSwap(h)
	return h
}

// dispatchAS ships a copied frame to the server proxy on the AS thread
// (XShmPutImage — hook7). It does not block the pipeline loop.
func (a *App) dispatchAS(f *scene.Frame) {
	asStart := a.k.Now()
	ms := (a.prof.ASBaseMs + a.prof.ASPerMBMs*f.RawBytes()/1e6) * (1 + a.prof.IPCTax)
	work := sim.DurationOfSeconds(ms/1e3) + a.tracer.HookCost()
	a.proc.Run(work, func() {
		a.tracer.AddStage(trace.StageAS, a.k.Now().Sub(asStart), f.Tags...)
		if a.sendFrame != nil {
			a.sendFrame(f)
		}
	})
}

// slowMotionLoop admits one input at a time and fully serializes its
// processing; with no queued input it idles (no frames are produced),
// drastically altering the system's behaviour — the methodology's flaw.
func (a *App) slowMotionLoop() {
	if !a.running {
		return
	}
	if a.display.Pending() == 0 {
		a.k.After(a.smPollEvery, a.slowMotionLoop)
		return
	}
	tags, act := a.drainInputs()
	a.sc.Step(act)
	alStart := a.k.Now()
	a.proc.Run(a.alWork(len(tags)), func() {
		a.tracer.AddStage(trace.StageAL, a.k.Now().Sub(alStart), tags...)
		h := a.swap(tags)
		// Fully sequential: wait for the render, then copy this very
		// frame, then ship it, then look for the next input.
		h.OnRenderDone(func() {
			a.ip.CopyFrame(h,
				func() {},
				func(f *scene.Frame) {
					asStart := a.k.Now()
					ms := (a.prof.ASBaseMs + a.prof.ASPerMBMs*f.RawBytes()/1e6) * (1 + a.prof.IPCTax)
					a.proc.Run(sim.DurationOfSeconds(ms/1e3), func() {
						a.tracer.AddStage(trace.StageAS, a.k.Now().Sub(asStart), f.Tags...)
						if a.sendFrame != nil {
							a.sendFrame(f)
						}
						a.k.After(0, a.slowMotionLoop)
					})
				})
		})
	})
}
