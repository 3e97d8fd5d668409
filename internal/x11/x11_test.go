package x11

import (
	"testing"

	"pictor/internal/hw/cpu"
	"pictor/internal/proto"
	"pictor/internal/scene"
	"pictor/internal/sim"
)

func newDisplay(k *sim.Kernel) *Display {
	return NewDisplay(k, sim.NewRNG(1), 1920, 1080)
}

func TestEventQueueFIFO(t *testing.T) {
	k := sim.NewKernel()
	d := newDisplay(k)
	for i := 1; i <= 3; i++ {
		d.Push(proto.Input{Tag: uint64(i), Action: scene.ActPrimary})
	}
	if d.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", d.Pending())
	}
	got := d.Drain()
	if len(got) != 3 || got[0].Tag != 1 || got[2].Tag != 3 {
		t.Fatalf("drain order wrong: %+v", got)
	}
	if d.Pending() != 0 || len(d.Drain()) != 0 {
		t.Fatal("queue not emptied")
	}
}

func TestGetWindowAttributesSlowness(t *testing.T) {
	k := sim.NewKernel()
	d := newDisplay(k)
	c := cpu.New(k, 8, sim.NewRNG(2))
	proc := c.NewProc("app", nil, 0)
	var at sim.Time
	var w, h int
	d.GetWindowAttributes(proc, func(gw, gh int) {
		at = k.Now()
		w, h = gw, gh
	})
	k.Run()
	// The paper measures 6–9 ms for this call.
	if ms := at.Millis(); ms < 5.5 || ms > 10 {
		t.Fatalf("XGetWindowAttributes took %vms, want 6–9ms", ms)
	}
	if w != 1920 || h != 1080 {
		t.Fatalf("attributes = %dx%d, want 1920x1080", w, h)
	}
}

func TestResolutionEpoch(t *testing.T) {
	k := sim.NewKernel()
	d := newDisplay(k)
	e0 := d.ResolutionEpoch()
	d.SetResolution(1920, 1080) // unchanged: no epoch bump
	if d.ResolutionEpoch() != e0 {
		t.Fatal("same-size SetResolution bumped the epoch")
	}
	d.SetResolution(1280, 720)
	if d.ResolutionEpoch() != e0+1 {
		t.Fatal("resize did not bump the epoch")
	}
	if w, h := d.Resolution(); w != 1280 || h != 720 {
		t.Fatalf("resolution = %dx%d", w, h)
	}
}

// TestGetWindowAttributesAllocatesNothing: a steady-state round trip
// (the call, then the kernel drained) allocates nothing once the
// display has a free record.
func TestGetWindowAttributesAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	d := newDisplay(k)
	proc := cpu.New(k, 8, sim.NewRNG(2)).NewProc("app", nil, 0)
	var w int
	done := func(width, _ int) { w = width }
	if a := testing.AllocsPerRun(100, func() {
		d.GetWindowAttributes(proc, done)
		k.Run()
	}); a != 0 {
		t.Fatalf("GetWindowAttributes round trip made %v allocations, want 0", a)
	}
	if w != 1920 {
		t.Fatalf("round trip reported width %d, want 1920", w)
	}
}
