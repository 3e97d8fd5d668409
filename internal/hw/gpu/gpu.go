// Package gpu models the server's graphics card: a render engine shared
// by all co-located instances, a shared L2 cache whose miss rate climbs
// under co-location (Figure 16, left bars), private per-context texture
// caches (flat under co-location, Figure 16 right bars), GPU timestamps
// for OpenGL time queries, and per-context memory/utilization accounting.
package gpu

import (
	"pictor/internal/sim"
)

// Profile describes a rendering context's GPU behaviour.
type Profile struct {
	// BaseRenderMs is the time to render one frame when running alone.
	BaseRenderMs float64
	// RenderJitter is the lognormal sigma applied per frame.
	RenderJitter float64
	// BaseL2Miss is the shared-L2 miss ratio running alone.
	BaseL2Miss float64
	// TexMiss is the (private) texture cache miss ratio.
	TexMiss float64
	// L2Sensitivity in [0,1] scales contention-driven L2 miss growth.
	L2Sensitivity float64
	// MemoryMB is GPU memory resident for this context (< 800 MB in
	// the paper's suite).
	MemoryMB float64
	// SupportsPMU is false for contexts using ancient GL versions the
	// vendor tools cannot read (0 A.D. uses OpenGL 1.3 → no Figure 16
	// data, marked N/A).
	SupportsPMU bool
}

// GPU is the render device.
type GPU struct {
	k      *sim.Kernel
	rng    *sim.RNG
	engine *sim.FIFO

	// MissSlope converts co-runner count into added shared-L2 miss rate.
	MissSlope float64
	// MissPenalty converts added L2 miss rate into render-time inflation.
	MissPenalty float64
	// VirtTax multiplies render time when a context is containerized
	// (GPU virtualization overhead, §5.4); zero means bare metal.
	contexts []*Context
}

// New creates a GPU model.
func New(k *sim.Kernel, rng *sim.RNG) *GPU {
	return &GPU{
		k:           k,
		rng:         rng.Fork("gpu"),
		engine:      sim.NewFIFO(k, "gpu-engine", 1),
		MissSlope:   0.06,
		MissPenalty: 2.6,
	}
}

// Context is one application's rendering context (a vGPU slice).
type Context struct {
	gpu     *GPU
	name    string
	prof    Profile
	active  bool
	virtTax float64 // multiplicative render-time overhead (containers)

	busy    sim.Duration
	frames  int64
	started sim.Time
	l2Acc   float64
	l2Miss  float64
	texAcc  float64
	texMiss float64
	free    *render // recycled Render records
}

// render is the record of one Context.Render in flight, recycled through
// Context.free. hold and fire are the method values r.duration and
// r.finish, bound once when the record is built, so a Render allocates
// nothing once a record is free.
type render struct {
	c          *Context
	complexity float64
	d          sim.Duration // render time, drawn when the engine is granted
	done       func()
	hold       func() sim.Duration
	fire       func()
	next       *render // next free record
}

// NewContext registers a rendering context.
func (g *GPU) NewContext(name string, p Profile) *Context {
	c := &Context{gpu: g, name: name, prof: p, started: g.k.Now()}
	g.contexts = append(g.contexts, c)
	return c
}

// SetActive marks the context as live (contending for the shared L2).
func (c *Context) SetActive(a bool) { c.active = a }

// SetVirtTax sets the container GPU-virtualization overhead fraction
// (e.g. 0.03 for +3% render time).
func (c *Context) SetVirtTax(tax float64) { c.virtTax = tax }

// Profile reports the context's GPU profile.
func (c *Context) Profile() Profile { return c.prof }

// coRunners counts other active contexts.
func (c *Context) coRunners() float64 {
	n := 0.0
	for _, o := range c.gpu.contexts {
		if o != c && o.active {
			n += o.prof.L2Sensitivity*0.5 + 0.5
		}
	}
	return n
}

// L2MissRate reports the current shared-L2 miss ratio under co-location.
func (c *Context) L2MissRate() float64 {
	mr := c.prof.BaseL2Miss + c.gpu.MissSlope*c.coRunners()*(0.5+c.prof.L2Sensitivity)
	if mr > 0.95 {
		mr = 0.95
	}
	return mr
}

// TexMissRate reports the (private, therefore contention-flat) texture
// cache miss ratio.
func (c *Context) TexMissRate() float64 { return c.prof.TexMiss }

// Render submits one frame; done fires when the GPU finishes it.
// complexity scales draw cost around 1.0 (scene-dependent).
// The render time inflates with shared-L2 contention; queueing behind
// other instances' frames is emergent from the engine FIFO.
func (c *Context) Render(complexity float64, done func()) {
	if complexity <= 0 {
		complexity = 1
	}
	r := c.free
	if r == nil {
		r = &render{c: c}
		r.hold, r.fire = r.duration, r.finish
	} else {
		c.free = r.next
	}
	r.complexity, r.done = complexity, done
	c.gpu.engine.Use(r.hold, r.fire)
}

// duration draws the frame's render time under the contention at grant.
func (r *render) duration() sim.Duration {
	c := r.c
	extraMiss := c.L2MissRate() - c.prof.BaseL2Miss
	inflate := 1 + c.gpu.MissPenalty*extraMiss
	ms := c.prof.BaseRenderMs * r.complexity * inflate * (1 + c.virtTax)
	r.d = c.gpu.rng.Jitter(sim.DurationOfSeconds(ms/1e3), c.prof.RenderJitter)
	return r.d
}

// finish accounts the rendered frame and recycles r before calling done,
// which may start the next Render on the same record.
func (r *render) finish() {
	c, d, done := r.c, r.d, r.done
	r.done = nil
	r.next, c.free = c.free, r
	c.busy += d
	c.frames++
	// Synthetic PMU traffic: accesses scale with render time.
	accesses := float64(d) / float64(sim.Millisecond) * 5e4
	l2mr := c.L2MissRate()
	c.l2Acc += accesses
	c.l2Miss += accesses * l2mr
	c.texAcc += accesses * 2.5
	c.texMiss += accesses * 2.5 * c.prof.TexMiss
	done()
}

// Frames reports the number of frames this context has rendered.
func (c *Context) Frames() int64 { return c.frames }

// BusyTime reports this context's cumulative render time.
func (c *Context) BusyTime() sim.Duration { return c.busy }

// Utilization reports the fraction (%) of wall time this context kept
// the GPU busy since accounting started.
func (c *Context) Utilization() float64 {
	elapsed := c.gpu.k.Now().Sub(c.started)
	if elapsed <= 0 {
		return 0
	}
	return float64(c.busy) / float64(elapsed) * 100
}

// ObservedL2MissRate reports the PMU-accumulated shared-L2 miss ratio.
// Contexts without PMU support report -1 (the paper's "N/A" for 0 A.D.).
func (c *Context) ObservedL2MissRate() float64 {
	if !c.prof.SupportsPMU {
		return -1
	}
	if c.l2Acc == 0 {
		return c.L2MissRate()
	}
	return c.l2Miss / c.l2Acc
}

// ObservedTexMissRate reports the PMU-accumulated texture miss ratio,
// or -1 without PMU support.
func (c *Context) ObservedTexMissRate() float64 {
	if !c.prof.SupportsPMU {
		return -1
	}
	if c.texAcc == 0 {
		return c.prof.TexMiss
	}
	return c.texMiss / c.texAcc
}

// ResetAccounting clears utilization/PMU accumulation (post-warmup).
func (c *Context) ResetAccounting() {
	c.busy = 0
	c.frames = 0
	c.started = c.gpu.k.Now()
	c.l2Acc, c.l2Miss, c.texAcc, c.texMiss = 0, 0, 0, 0
}
