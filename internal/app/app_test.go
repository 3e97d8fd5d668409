package app

import (
	"testing"

	"pictor/internal/gl"
	"pictor/internal/hw/cpu"
	"pictor/internal/hw/gpu"
	"pictor/internal/hw/pcie"
	"pictor/internal/proto"
	"pictor/internal/scene"
	"pictor/internal/sim"
	"pictor/internal/trace"
	"pictor/internal/vgl"
	"pictor/internal/x11"
)

type rig struct {
	k       *sim.Kernel
	app     *App
	display *x11.Display
	tracer  *trace.Tracer
	frames  []*scene.Frame
}

func newRig(prof Profile, mode Mode) *rig {
	k := sim.NewKernel()
	rng := sim.NewRNG(1)
	c := cpu.New(k, 8, rng)
	g := gpu.New(k, rng)
	gctx := g.NewContext("app", prof.GPU)
	gctx.SetActive(true)
	bus := pcie.New(k, 15.75e9)
	glctx := gl.NewContext(k, gctx, bus.NewClient("app"))
	display := x11.NewDisplay(k, rng, prof.Width, prof.Height)
	tracer := trace.New(k)
	proc := c.NewProc("app", nil, prof.AppBackgroundCores)
	ip := vgl.New(k, proc, display, tracer, vgl.DefaultOptions())
	r := &rig{k: k, display: display, tracer: tracer}
	r.app = New(Config{
		Kernel: k, RNG: rng, Profile: prof, Proc: proc, GL: glctx,
		Interposer: ip, Display: display, Tracer: tracer, Mode: mode,
		SendFrame: func(f *scene.Frame) { r.frames = append(r.frames, f) },
	})
	return r
}

func TestSuiteProfilesComplete(t *testing.T) {
	paper := PaperSuite()
	if len(paper) != 6 {
		t.Fatalf("paper suite size = %d, want 6", len(paper))
	}
	for i, want := range []string{"STK", "0AD", "RE", "D2", "IM", "ITP"} {
		if paper[i].Name != want {
			t.Fatalf("paper suite [%d] = %s, want %s (Table-2 order)", i, paper[i].Name, want)
		}
		if paper[i].Mem.BaseMissRate < 0.5 {
			t.Fatalf("%s L3 base miss %v — 3D apps are >70%% in the paper", want, paper[i].Mem.BaseMissRate)
		}
	}
	suite := Suite()
	if len(suite) < 9 {
		t.Fatalf("registry holds %d profiles, want >= 9 (paper six + CAD, VV, CZ)", len(suite))
	}
	names := map[string]bool{}
	for _, p := range suite {
		if names[p.Name] {
			t.Fatalf("duplicate profile %s", p.Name)
		}
		names[p.Name] = true
	}
	for _, want := range []string{"CAD", "VV", "CZ"} {
		if !names[want] {
			t.Fatalf("registry missing extended family %s", want)
		}
	}
	if _, ok := ByName("STK"); !ok {
		t.Fatal("ByName(STK) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted garbage")
	}
}

func TestPipelineProducesFramesWithoutInputs(t *testing.T) {
	r := newRig(RE(), ModeNormal)
	r.app.Start()
	r.k.RunUntil(sim.Time(2 * sim.Second))
	r.app.Stop()
	if len(r.frames) < 20 {
		t.Fatalf("only %d frames in 2s of free-running pipeline", len(r.frames))
	}
	if r.app.Frames() <= int64(len(r.frames)) {
		t.Fatal("frame sequencing inconsistent")
	}
}

func TestInputsFlowIntoFrames(t *testing.T) {
	r := newRig(RE(), ModeNormal)
	r.app.Start()
	r.display.Push(proto.Input{Tag: 9, Action: scene.ActPrimary})
	r.k.RunUntil(sim.Time(sim.Second))
	r.app.Stop()
	found := false
	for _, f := range r.frames {
		for _, tag := range trace.ExtractTags(f.TagHeader) {
			if tag == 9 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("input tag never reached a frame")
	}
}

func TestStagesRecorded(t *testing.T) {
	r := newRig(D2(), ModeNormal)
	r.app.Start()
	r.k.RunUntil(sim.Time(sim.Second))
	r.app.Stop()
	for _, s := range []trace.Stage{trace.StageAL, trace.StageRD, trace.StageFC, trace.StageAS} {
		if r.tracer.StageSample(s).N() == 0 {
			t.Fatalf("stage %s never recorded", s)
		}
	}
}

func TestSlowMotionIdlesWithoutInput(t *testing.T) {
	r := newRig(RE(), ModeSlowMotion)
	r.app.Start()
	r.k.RunUntil(sim.Time(sim.Second))
	if len(r.frames) != 0 {
		t.Fatalf("slow-motion rendered %d frames with no input", len(r.frames))
	}
	// One input → exactly one frame.
	r.display.Push(proto.Input{Tag: 5, Action: scene.ActPrimary})
	r.k.RunUntil(sim.Time(2 * sim.Second))
	r.app.Stop()
	if len(r.frames) != 1 {
		t.Fatalf("slow-motion produced %d frames for one input, want 1", len(r.frames))
	}
}

func TestStopHaltsPipeline(t *testing.T) {
	r := newRig(IM(), ModeNormal)
	r.app.Start()
	r.k.RunUntil(sim.Time(sim.Second))
	r.app.Stop()
	n := len(r.frames)
	r.k.RunUntil(sim.Time(3 * sim.Second))
	// The in-flight pass may finish; no sustained production afterwards.
	if len(r.frames) > n+3 {
		t.Fatalf("pipeline kept producing after Stop: %d -> %d", n, len(r.frames))
	}
}

func TestALComplexityCouplingDefaults(t *testing.T) {
	// The documented default is stamped at registration, not coerced at
	// runtime: every registered profile carries an explicit coupling.
	for _, p := range Suite() {
		if p.ALComplexityCoupling <= 0 || p.ALComplexityCoupling > 1 {
			t.Fatalf("%s: registered coupling %v outside (0,1] — registration must make the default explicit",
				p.Name, p.ALComplexityCoupling)
		}
	}
	if re, _ := ByName("RE"); re.ALComplexityCoupling != DefaultALComplexityCoupling {
		t.Fatalf("RE coupling = %v, want the stamped default %v", re.ALComplexityCoupling, DefaultALComplexityCoupling)
	}
	if cz, _ := ByName("CZ"); cz.ALComplexityCoupling == DefaultALComplexityCoupling {
		t.Fatal("CZ sets an explicit coupling; registration must not overwrite it with the default")
	}
	// A hand-built zero-coupling profile now genuinely runs uncoupled —
	// AL cost collapses to the base term instead of silently becoming
	// the 0.25 default — and the pipeline still produces sane stages.
	prof := RE()
	prof.ALComplexityCoupling = 0
	r := newRig(prof, ModeNormal)
	r.app.Start()
	r.k.RunUntil(sim.Time(sim.Second))
	r.app.Stop()
	if m := r.tracer.StageSample(trace.StageAL).Mean(); m < 1 {
		t.Fatalf("AL mean = %vms with zero coupling, implausible", m)
	}
}

// TestDispatchASAllocatesNothing: a steady-state AS hand-off (dispatch,
// then the kernel drained) allocates nothing once the app has a free
// record.
func TestDispatchASAllocatesNothing(t *testing.T) {
	r := newRig(STK(), ModeNormal)
	r.tracer.SizeHint(1 << 10)
	var sent *scene.Frame
	r.app.sendFrame = func(f *scene.Frame) { sent = f }
	f := r.app.sc.Render(1, 64, 48)
	if a := testing.AllocsPerRun(100, func() {
		r.app.dispatchAS(f)
		r.k.Run()
	}); a != 0 {
		t.Fatalf("dispatchAS made %v allocations, want 0", a)
	}
	if sent != f || r.tracer.StageSample(trace.StageAS).N() != 101 {
		t.Fatalf("AS delivered %p (want %p) over %d stages, want 101",
			sent, f, r.tracer.StageSample(trace.StageAS).N())
	}
}

// TestSlowMotionPassAllocatesNothing: one slow-motion pass (an untagged
// input admitted, then AL → RD → FC → AS to the proxy, then the idle
// polls) allocates nothing once every free list is warm.
func TestSlowMotionPassAllocatesNothing(t *testing.T) {
	r := newRig(RE(), ModeSlowMotion)
	r.tracer.SizeHint(1 << 10)
	sent := 0
	r.app.sendFrame = func(f *scene.Frame) {
		sent++
		f.Release()
	}
	r.app.Start()
	in := proto.Input{Action: scene.ActPrimary}
	if a := testing.AllocsPerRun(100, func() {
		r.display.Push(in)
		r.k.RunUntil(r.k.Now().Add(200 * sim.Millisecond))
	}); a != 0 {
		t.Fatalf("a slow-motion pass made %v allocations, want 0", a)
	}
	if sent != 101 {
		t.Fatalf("%d frames reached the proxy over 101 passes, want 101", sent)
	}
}
