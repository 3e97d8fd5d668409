// Package vnc models the remote-display proxies of the cloud rendering
// system (TurboVNC in the paper's testbed): the server proxy that
// receives user inputs and compresses/ships frames, and the client
// proxy that sends inputs and displays received frames.
package vnc

import (
	"pictor/internal/codec"
	"pictor/internal/hw/cpu"
	"pictor/internal/netsim"
	"pictor/internal/proto"
	"pictor/internal/scene"
	"pictor/internal/sim"
	"pictor/internal/trace"
	"pictor/internal/x11"
)

// Costs parameterizes the proxy's per-message CPU work.
type Costs struct {
	// SPMs is server-proxy input handling (stage SP, sub-millisecond).
	SPMs float64
	// PSMs is the IPC injection of an input into the app (stage PS).
	PSMs float64
	// ReceiveMs is per-frame intake work at hook8 (shared-memory map,
	// damage tracking). It shares the encoder thread with CP, so a
	// faster application eats into encode throughput.
	ReceiveMs float64
	// IPCTax multiplies IPC-stage work (containers raise it).
	IPCTax float64
}

// DefaultCosts returns typical TurboVNC input-path costs.
func DefaultCosts() Costs {
	return Costs{SPMs: 0.35, PSMs: 1.6, ReceiveMs: 0.7}
}

// ServerProxy is the cloud-side media proxy of one instance. Frame
// intake and encoding share one serial worker (the RFB update thread);
// network sends overlap with intake but only one update is in flight.
type ServerProxy struct {
	k       *sim.Kernel
	proc    *cpu.Proc
	link    *netsim.Link
	display *x11.Display
	tracer  *trace.Tracer
	cod     codec.Codec
	rng     *sim.RNG
	costs   Costs

	deliver func(f *scene.Frame)

	tasks   []func(done func())
	busy    bool
	pending *scene.Frame
	sending bool

	// tagMerge is scratch for coalescing tag lists without allocating.
	tagMerge []uint64
}

// NewServerProxy creates the server proxy. Wire frame delivery to the
// client proxy with SetDeliver before running.
func NewServerProxy(k *sim.Kernel, proc *cpu.Proc, link *netsim.Link, display *x11.Display,
	tracer *trace.Tracer, cod codec.Codec, costs Costs, rng *sim.RNG) *ServerProxy {
	if costs.ReceiveMs <= 0 {
		costs.ReceiveMs = 0.7
	}
	return &ServerProxy{
		k: k, proc: proc, link: link, display: display,
		tracer: tracer, cod: cod, costs: costs, rng: rng.Fork("vnc-server"),
	}
}

// SetDeliver wires the frame delivery callback (client proxy).
func (s *ServerProxy) SetDeliver(fn func(f *scene.Frame)) { s.deliver = fn }

// HandleInput processes one input arriving from the network: hook2, the
// SP stage, hook3, then the PS IPC injection into the application's X
// event queue. The input path runs on its own proxy thread and does not
// queue behind frame encoding.
func (s *ServerProxy) HandleInput(in proto.Input) {
	now := s.k.Now()
	if in.Tag != 0 {
		s.tracer.AddStage(trace.StageCS, now.Sub(in.Issued), in.Tag)
	}
	spWork := msToDur(s.costs.SPMs) + 2*s.tracer.HookCost()
	spStart := now
	s.proc.Run(spWork, func() {
		s.tracer.AddStage(trace.StageSP, s.k.Now().Sub(spStart), in.Tag)
		psStart := s.k.Now()
		psWork := msToDur(s.costs.PSMs * (1 + s.costs.IPCTax))
		s.proc.Run(psWork, func() {
			s.tracer.AddStage(trace.StagePS, s.k.Now().Sub(psStart), in.Tag)
			s.display.Push(in)
		})
	})
}

// HandleFrame receives a rendered frame from the application's AS path.
// At hook8 the frame's tags are decoded from the tag header hook6 wrote
// (the leading pixels of the paper's frame); the raster is not read or
// drawn. Intake work is serialized with encoding on the update thread;
// frames arriving while the encoder is behind coalesce onto the newest
// frame (TurboVNC ships the latest framebuffer state, not a backlog).
func (s *ServerProxy) HandleFrame(f *scene.Frame) {
	s.exec(func(done func()) {
		s.proc.Run(msToDur(s.costs.ReceiveMs)+s.tracer.HookCost(), func() {
			// hook8: recover the tags from the header. The header-borne
			// tags are authoritative across the IPC boundary; they land
			// in the frame's own (recycled) tag storage.
			f.Tags = trace.ExtractTagsAppend(f.TagHeader, f.Tags[:0])
			s.tracer.ServerFrameTick()
			if old := s.pending; old != nil {
				// Newest frame wins, but answered inputs keep their tags
				// (in arrival order — RTT accumulation order is part of
				// the determinism contract). The superseded frame goes
				// back to the scene's free list.
				s.tagMerge = append(append(s.tagMerge[:0], old.Tags...), f.Tags...)
				f.Tags = append(f.Tags[:0], s.tagMerge...)
				s.tracer.FrameDropped()
				old.Release()
			}
			s.pending = f
			done()
			s.pump()
		})
	})
}

// exec runs tasks one at a time on the update thread.
func (s *ServerProxy) exec(t func(done func())) {
	s.tasks = append(s.tasks, t)
	s.drain()
}

func (s *ServerProxy) drain() {
	if s.busy || len(s.tasks) == 0 {
		return
	}
	s.busy = true
	t := s.tasks[0]
	s.tasks = s.tasks[1:]
	t(func() {
		s.busy = false
		s.drain()
	})
}

// pump starts compressing the pending frame if no update is in flight.
func (s *ServerProxy) pump() {
	if s.sending || s.pending == nil {
		return
	}
	f := s.pending
	s.pending = nil
	s.sending = true
	s.exec(func(done func()) {
		bytes, cpCost := s.cod.Compress(f, s.rng)
		f.CompressedBytes = bytes
		cpStart := s.k.Now()
		s.proc.Run(cpCost+s.tracer.HookCost(), func() {
			s.tracer.AddStage(trace.StageCP, s.k.Now().Sub(cpStart), f.Tags...)
			done() // encoder thread freed; the send overlaps intake
			ssStart := s.k.Now()
			s.link.SendToClient(bytes, func() {
				s.tracer.AddStage(trace.StageSS, s.k.Now().Sub(ssStart), f.Tags...)
				if s.deliver != nil {
					s.deliver(f)
				}
				s.sending = false
				s.pump()
			})
		})
	})
}

func msToDur(ms float64) sim.Duration {
	return sim.DurationOfSeconds(ms / 1e3)
}

// Driver consumes displayed frames and produces inputs. Implementations
// live in internal/agent (human reference, intelligent client) and
// internal/baselines (DeskBench, Slow-Motion pacing).
type Driver interface {
	// Attach hands the driver its input-sending function before the run
	// starts.
	Attach(send func(scene.Action))
	// OnFrame delivers one displayed frame. The driver takes ownership:
	// it calls Frame.Release once done with the frame (drivers that
	// don't recycle simply let the release be the frame's last use).
	OnFrame(f *scene.Frame)
}

// ClientProxy is the user-side proxy of one instance.
type ClientProxy struct {
	k      *sim.Kernel
	link   *netsim.Link
	tracer *trace.Tracer
	server *ServerProxy
	driver Driver
}

// NewClientProxy creates the client proxy and wires the delivery path
// from the server proxy.
func NewClientProxy(k *sim.Kernel, link *netsim.Link, tracer *trace.Tracer, server *ServerProxy, driver Driver) *ClientProxy {
	c := &ClientProxy{k: k, link: link, tracer: tracer, server: server, driver: driver}
	server.SetDeliver(c.handleFrame)
	if driver != nil {
		driver.Attach(c.SendInput)
	}
	return c
}

// SendInput tags (hook1) and ships one input to the server.
func (c *ClientProxy) SendInput(a scene.Action) {
	tag := c.tracer.NextTag()
	c.tracer.RecordHook(trace.Hook1, tag)
	in := proto.Input{Tag: tag, Action: a, Issued: c.k.Now()}
	c.link.SendToServer(proto.InputBytes, func() {
		c.server.HandleInput(in)
	})
}

// handleFrame completes the round trip (hook10), counts the client
// frame, and hands the decompressed frame to the driver. Ownership of
// the frame passes to the driver, which releases it (immediately or,
// for the intelligent client, once analyzed); with no driver it goes
// straight back to the scene's free list.
func (c *ClientProxy) handleFrame(f *scene.Frame) {
	c.tracer.RecordHookMulti(trace.Hook10, f.Tags)
	c.tracer.ClientFrameTick()
	if c.driver == nil {
		f.Release()
		return
	}
	c.k.After(codec.DecompressTime(f.CompressedBytes), func() {
		c.driver.OnFrame(f)
	})
}
