package gpu

import (
	"testing"

	"pictor/internal/sim"
)

func testProfile() Profile {
	return Profile{
		BaseRenderMs:  8,
		RenderJitter:  0, // deterministic for tests
		BaseL2Miss:    0.30,
		TexMiss:       0.22,
		L2Sensitivity: 0.7,
		MemoryMB:      500,
		SupportsPMU:   true,
	}
}

func TestSoloRenderTakesBaseTime(t *testing.T) {
	k := sim.NewKernel()
	g := New(k, sim.NewRNG(1))
	c := g.NewContext("app", testProfile())
	c.SetActive(true)
	var end sim.Time
	c.Render(1.0, func() { end = k.Now() })
	k.Run()
	if end != sim.Time(8*sim.Millisecond) {
		t.Fatalf("solo render ended at %v, want 8ms", end)
	}
	if c.Frames() != 1 {
		t.Fatalf("Frames = %d, want 1", c.Frames())
	}
}

func TestComplexityScalesRenderTime(t *testing.T) {
	k := sim.NewKernel()
	g := New(k, sim.NewRNG(1))
	c := g.NewContext("app", testProfile())
	c.SetActive(true)
	var end sim.Time
	c.Render(2.0, func() { end = k.Now() })
	k.Run()
	if end != sim.Time(16*sim.Millisecond) {
		t.Fatalf("2x-complexity render ended at %v, want 16ms", end)
	}
}

func TestEngineSerializesAcrossContexts(t *testing.T) {
	k := sim.NewKernel()
	g := New(k, sim.NewRNG(1))
	a := g.NewContext("a", testProfile())
	b := g.NewContext("b", testProfile())
	a.SetActive(true)
	b.SetActive(true)
	var aEnd, bEnd sim.Time
	a.Render(1, func() { aEnd = k.Now() })
	b.Render(1, func() { bEnd = k.Now() })
	k.Run()
	if bEnd <= aEnd {
		t.Fatalf("second context's frame finished at %v, not after first (%v)", bEnd, aEnd)
	}
	// With contention the L2 miss rate rises, so each render exceeds 8ms.
	if aEnd <= sim.Time(8*sim.Millisecond) {
		t.Fatalf("contended render ended at %v, want > 8ms", aEnd)
	}
}

func TestL2MissGrowsWithCoRunnersTexFlat(t *testing.T) {
	k := sim.NewKernel()
	g := New(k, sim.NewRNG(1))
	c := g.NewContext("c", testProfile())
	c.SetActive(true)
	solo := c.L2MissRate()
	soloTex := c.TexMissRate()
	for i := 0; i < 3; i++ {
		o := g.NewContext("o", testProfile())
		o.SetActive(true)
	}
	loaded := c.L2MissRate()
	if loaded <= solo {
		t.Fatalf("shared L2 miss did not grow: %v -> %v", solo, loaded)
	}
	if c.TexMissRate() != soloTex {
		t.Fatalf("private texture miss changed under co-location: %v -> %v", soloTex, c.TexMissRate())
	}
}

func TestPMUUnsupportedReportsNA(t *testing.T) {
	k := sim.NewKernel()
	g := New(k, sim.NewRNG(1))
	p := testProfile()
	p.SupportsPMU = false // 0 A.D.: OpenGL 1.3
	c := g.NewContext("0ad", p)
	c.SetActive(true)
	if got := c.ObservedL2MissRate(); got != -1 {
		t.Fatalf("ObservedL2MissRate without PMU = %v, want -1", got)
	}
	if got := c.ObservedTexMissRate(); got != -1 {
		t.Fatalf("ObservedTexMissRate without PMU = %v, want -1", got)
	}
}

func TestObservedMissRatesAfterTraffic(t *testing.T) {
	k := sim.NewKernel()
	g := New(k, sim.NewRNG(1))
	c := g.NewContext("c", testProfile())
	c.SetActive(true)
	for i := 0; i < 5; i++ {
		c.Render(1, func() {})
	}
	k.Run()
	if got := c.ObservedL2MissRate(); got < 0.25 || got > 0.4 {
		t.Fatalf("observed L2 miss = %v, want near base 0.30", got)
	}
	if got := c.ObservedTexMissRate(); got < 0.21 || got > 0.23 {
		t.Fatalf("observed tex miss = %v, want near 0.22", got)
	}
}

func TestUtilization(t *testing.T) {
	k := sim.NewKernel()
	g := New(k, sim.NewRNG(1))
	c := g.NewContext("c", testProfile())
	c.SetActive(true)
	c.Render(1, func() {})
	k.Run()
	k.RunUntil(sim.Time(100 * sim.Millisecond))
	// 8ms busy over 100ms = 8%.
	if got := c.Utilization(); got < 7.5 || got > 8.5 {
		t.Fatalf("utilization = %v%%, want ~8%%", got)
	}
}

func TestVirtTaxInflatesRender(t *testing.T) {
	k := sim.NewKernel()
	g := New(k, sim.NewRNG(1))
	c := g.NewContext("c", testProfile())
	c.SetActive(true)
	c.SetVirtTax(0.25)
	var end sim.Time
	c.Render(1, func() { end = k.Now() })
	k.Run()
	if end != sim.Time(10*sim.Millisecond) {
		t.Fatalf("virtualized render ended at %v, want 10ms (8ms × 1.25)", end)
	}
}

func TestResetAccounting(t *testing.T) {
	k := sim.NewKernel()
	g := New(k, sim.NewRNG(1))
	c := g.NewContext("c", testProfile())
	c.SetActive(true)
	c.Render(1, func() {})
	k.Run()
	c.ResetAccounting()
	if c.Frames() != 0 || c.BusyTime() != 0 {
		t.Fatal("accounting not cleared")
	}
	if got := c.ObservedL2MissRate(); got < 0.29 || got > 0.31 {
		t.Fatalf("post-reset observed miss should fall back to instantaneous: %v", got)
	}
}

func TestZeroComplexityClamped(t *testing.T) {
	k := sim.NewKernel()
	g := New(k, sim.NewRNG(1))
	c := g.NewContext("c", testProfile())
	c.SetActive(true)
	var end sim.Time
	c.Render(0, func() { end = k.Now() })
	k.Run()
	if end != sim.Time(8*sim.Millisecond) {
		t.Fatalf("zero-complexity render ended at %v, want clamped to 8ms", end)
	}
}

// TestRenderAllocatesNothing: once the context's and the engine's
// records are free, a frame from submission to completion allocates
// nothing.
func TestRenderAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, sim.NewRNG(1)).NewContext("app", testProfile())
	c.SetActive(true)
	done := func() {}
	if n := testing.AllocsPerRun(100, func() {
		c.Render(1, done)
		k.Run()
	}); n != 0 {
		t.Fatalf("a Render cycle made %v allocations, want 0", n)
	}
}
