package vnc

import (
	"testing"

	"pictor/internal/codec"
	"pictor/internal/gl"
	"pictor/internal/hw/cpu"
	"pictor/internal/hw/gpu"
	"pictor/internal/hw/pcie"
	"pictor/internal/netsim"
	"pictor/internal/proto"
	"pictor/internal/scene"
	"pictor/internal/sim"
	"pictor/internal/trace"
	"pictor/internal/vgl"
	"pictor/internal/x11"
)

type env struct {
	k       *sim.Kernel
	tracer  *trace.Tracer
	display *x11.Display
	server  *ServerProxy
	client  *ClientProxy
}

type stubDriver struct {
	frames []*scene.Frame
	send   func(scene.Action)
}

func (d *stubDriver) Attach(send func(scene.Action)) { d.send = send }
func (d *stubDriver) OnFrame(f *scene.Frame)         { d.frames = append(d.frames, f) }

func newEnv(driver Driver) *env {
	k := sim.NewKernel()
	rng := sim.NewRNG(1)
	c := cpu.New(k, 8, rng)
	tracer := trace.New(k)
	display := x11.NewDisplay(k, rng, 1920, 1080)
	link := netsim.NewLink(k, "i0", netsim.DefaultConfig(), rng)
	server := NewServerProxy(k, c.NewProc("vnc", nil, 0), link, display, tracer, codec.Default(), DefaultCosts(), rng)
	client := NewClientProxy(k, link, tracer, server, driver)
	return &env{k: k, tracer: tracer, display: display, server: server, client: client}
}

func taggedFrame(tr *trace.Tracer, tags ...uint64) *scene.Frame {
	return &scene.Frame{
		Width: 1920, Height: 1080, Motion: 0.3,
		Tags: tags, TagHeader: trace.EmbedTags(nil, tags),
	}
}

func TestInputPathReachesXQueue(t *testing.T) {
	e := newEnv(nil)
	e.client.SendInput(scene.ActPrimary)
	e.k.Run()
	events := e.display.Drain()
	if len(events) != 1 {
		t.Fatalf("X queue has %d events, want 1", len(events))
	}
	if events[0].Action != scene.ActPrimary || events[0].Tag == 0 {
		t.Fatalf("event corrupted: %+v", events[0])
	}
	// CS, SP and PS stages were measured.
	for _, s := range []trace.Stage{trace.StageCS, trace.StageSP, trace.StagePS} {
		if e.tracer.StageSample(s).N() == 0 {
			t.Fatalf("stage %s unmeasured", s)
		}
	}
}

func TestFramePathDeliversAndMeasures(t *testing.T) {
	d := &stubDriver{}
	e := newEnv(d)
	e.client.SendInput(scene.ActForward)
	e.k.Run()
	ev := e.display.Drain()[0]

	e.server.HandleFrame(taggedFrame(e.tracer, ev.Tag))
	e.k.Run()
	if len(d.frames) != 1 {
		t.Fatalf("driver saw %d frames, want 1", len(d.frames))
	}
	if e.tracer.CompletedRTTCount() != 1 {
		t.Fatal("round trip never completed")
	}
	if e.tracer.ServerFPS() <= 0 || e.tracer.ClientFPS() <= 0 {
		t.Fatal("FPS counters empty")
	}
	for _, s := range []trace.Stage{trace.StageCP, trace.StageSS} {
		if e.tracer.StageSample(s).N() == 0 {
			t.Fatalf("stage %s unmeasured", s)
		}
	}
	if d.frames[0].CompressedBytes <= 0 {
		t.Fatal("frame not compressed")
	}
}

func TestTagRecoveryFromPixels(t *testing.T) {
	d := &stubDriver{}
	e := newEnv(d)
	f := taggedFrame(e.tracer, 77, 78)
	f.Tags = nil // the proxy must recover them from the header alone
	e.server.HandleFrame(f)
	e.k.Run()
	if len(d.frames) != 1 {
		t.Fatal("frame lost")
	}
	got := d.frames[0].Tags
	if len(got) != 2 || got[0] != 77 || got[1] != 78 {
		t.Fatalf("recovered tags = %v, want [77 78]", got)
	}
}

// TestUntaggedFrameCarriesNoTags sends a frame that answers no input
// through hook6 (vgl's CopyFrame) and hook8 (HandleFrame). Its scene is
// empty, and its first pixel dithers to a value that would read as a
// tag count (hook8 once decoded untagged frames' pixels), so the driver
// must get no tags.
func TestUntaggedFrameCarriesNoTags(t *testing.T) {
	d := &stubDriver{}
	e := newEnv(d)
	sc := scene.New(scene.Dynamics{Kinds: []scene.Type{scene.Item}}, sim.NewRNG(3)) // never spawns
	count := func(f *scene.Frame) int { return int(f.Pixels()[0]*255 + 0.5) }
	var f *scene.Frame
	for i := 0; i < 64 && (f == nil || count(f) == 0); i++ {
		sc.Step(scene.ActNone)
		f = sc.Render(sc.Tick(), 1920, 1080)
	}
	if count(f) == 0 {
		t.Fatal("no frame whose first pixel reads as a tag count")
	}

	g := gpu.New(e.k, sim.NewRNG(4))
	gctx := g.NewContext("app", gpu.Profile{BaseRenderMs: 8})
	gctx.SetActive(true)
	glctx := gl.NewContext(e.k, gctx, pcie.New(e.k, 15.75e9).NewClient("app"))
	proc := cpu.New(e.k, 8, sim.NewRNG(5)).NewProc("app", nil, 0)
	ip := vgl.New(e.k, proc, e.display, e.tracer, vgl.DefaultOptions())
	ip.CopyFrame(glctx.SwapBuffers(f, 0), func() {}, e.server.HandleFrame)
	e.k.Run()
	if len(d.frames) != 1 {
		t.Fatalf("driver saw %d frames, want 1", len(d.frames))
	}
	if tags := d.frames[0].Tags; len(tags) != 0 {
		t.Fatalf("untagged frame reached the driver with tags %v", tags)
	}
}

func TestCoalescingKeepsTags(t *testing.T) {
	d := &stubDriver{}
	e := newEnv(d)
	// Three frames land faster than the encoder can ship them.
	e.server.HandleFrame(taggedFrame(e.tracer, 1))
	e.server.HandleFrame(taggedFrame(e.tracer, 2))
	e.server.HandleFrame(taggedFrame(e.tracer, 3))
	e.k.Run()
	if e.tracer.DroppedFrames() == 0 {
		t.Fatal("no coalescing despite encoder backlog")
	}
	// Every tag must still reach the client (on whichever frame).
	seen := map[uint64]bool{}
	for _, f := range d.frames {
		for _, tag := range f.Tags {
			seen[tag] = true
		}
	}
	for tag := uint64(1); tag <= 3; tag++ {
		if !seen[tag] {
			t.Fatalf("tag %d lost in coalescing", tag)
		}
	}
}

func TestServerFPSCountsArrivals(t *testing.T) {
	e := newEnv(nil)
	for i := 0; i < 5; i++ {
		e.server.HandleFrame(taggedFrame(e.tracer, uint64(100+i)))
	}
	e.k.Run()
	e.k.RunUntil(sim.Time(sim.Second))
	if got := e.tracer.ServerFrameCount(); got != 5 {
		t.Fatalf("server frames = %d, want 5", got)
	}
}

// The input and delivery paths reuse their records: each steady-state
// cycle below (the operation, then the kernel drained) allocates
// nothing. Tracing is off, so no tag record is made per input.

func TestHandleInputAllocatesNothing(t *testing.T) {
	e := newEnv(nil)
	e.tracer.SetEnabled(false)
	in := proto.Input{Action: scene.ActPrimary}
	if a := testing.AllocsPerRun(100, func() {
		e.server.HandleInput(in)
		e.k.Run()
		if len(e.display.Drain()) != 1 {
			t.Fatal("input never reached the X queue")
		}
	}); a != 0 {
		t.Fatalf("HandleInput (SP then PS) made %v allocations, want 0", a)
	}
}

func TestSendInputAllocatesNothing(t *testing.T) {
	e := newEnv(nil)
	e.tracer.SetEnabled(false)
	if a := testing.AllocsPerRun(100, func() {
		e.client.SendInput(scene.ActForward)
		e.k.Run()
		if len(e.display.Drain()) != 1 {
			t.Fatal("input never reached the X queue")
		}
	}); a != 0 {
		t.Fatalf("SendInput over the uplink made %v allocations, want 0", a)
	}
}

// countingDriver counts displayed frames without keeping them.
type countingDriver struct{ frames int }

func (d *countingDriver) Attach(func(scene.Action)) {}
func (d *countingDriver) OnFrame(*scene.Frame)      { d.frames++ }

func TestDecompressToDriverAllocatesNothing(t *testing.T) {
	d := &countingDriver{}
	e := newEnv(d)
	e.tracer.SetEnabled(false)
	f := taggedFrame(e.tracer)
	f.CompressedBytes = 40e3
	if a := testing.AllocsPerRun(100, func() {
		e.client.handleFrame(f)
		e.k.Run()
	}); a != 0 {
		t.Fatalf("decompress to driver made %v allocations, want 0", a)
	}
	if d.frames != 101 {
		t.Fatalf("driver saw %d frames, want 101", d.frames)
	}
}
