package cpu

import (
	"math"
	"testing"

	"pictor/internal/hw/mem"
	"pictor/internal/sim"
)

func newCPU(k *sim.Kernel, cores int) *CPU {
	return New(k, cores, sim.NewRNG(1))
}

func TestRunUncontendedTakesNominalTime(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 8)
	p := c.NewProc("app", nil, 0)
	var end sim.Time
	p.Run(10*sim.Millisecond, func() { end = k.Now() })
	k.Run()
	if end != sim.Time(10*sim.Millisecond) {
		t.Fatalf("uncontended work ended at %v, want 10ms", end)
	}
}

func TestOversubscriptionDilatesWork(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 2)
	var ends []sim.Time
	// 4 concurrent jobs on 2 cores: later-granted jobs see load 3/2, 4/2.
	for i := 0; i < 4; i++ {
		p := c.NewProc("p", nil, 0)
		p.Run(10*sim.Millisecond, func() { ends = append(ends, k.Now()) })
	}
	k.Run()
	var maxEnd sim.Time
	for _, e := range ends {
		if e > maxEnd {
			maxEnd = e
		}
	}
	if maxEnd <= sim.Time(10*sim.Millisecond) {
		t.Fatalf("oversubscribed work finished at %v, want > 10ms", maxEnd)
	}
}

func TestBackgroundLoadContributesToDilation(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 2)
	bg := c.NewProc("bg", nil, 4) // 4 cores of background on a 2-core CPU
	bg.Start()
	if d := c.Dilation(); math.Abs(d-2.5) > 1e-9 {
		t.Fatalf("dilation with 4 bg cores on 2 = %v, want 2.5", d)
	}
	bg.Stop()
	if d := c.Dilation(); d != 1 {
		t.Fatalf("dilation after stop = %v, want 1", d)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 8)
	p := c.NewProc("app", nil, 0)
	// 30ms of work over a 100ms window = 30%.
	p.Run(10*sim.Millisecond, nil)
	k.After(40*sim.Millisecond, func() { p.Run(20*sim.Millisecond, nil) })
	k.Run()
	k.RunUntil(sim.Time(100 * sim.Millisecond))
	if got := p.Utilization(); math.Abs(got-30) > 0.5 {
		t.Fatalf("utilization = %v%%, want ~30%%", got)
	}
}

func TestBackgroundUtilization(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 8)
	p := c.NewProc("engine", nil, 1.5)
	p.Start()
	k.RunUntil(sim.Time(sim.Second))
	if got := p.Utilization(); math.Abs(got-150) > 1 {
		t.Fatalf("background utilization = %v%%, want ~150%%", got)
	}
}

func TestMemContentionInflatesWork(t *testing.T) {
	k := sim.NewKernel()
	ms := mem.NewSystem()
	prof := mem.Profile{BaseMissRate: 0.7, Intensity: 1, Sensitivity: 1, AccessesPerMs: 100}
	ma := ms.Register("a", prof)
	mb := ms.Register("b", prof)
	ma.SetActive(true)
	mb.SetActive(true)
	c := newCPU(k, 16) // plenty of cores: isolate the memory effect
	p := c.NewProc("a", ma, 0)
	var end sim.Time
	p.Run(10*sim.Millisecond, func() { end = k.Now() })
	k.Run()
	if end <= sim.Time(10*sim.Millisecond) {
		t.Fatalf("mem-contended work ended at %v, want > 10ms", end)
	}
}

func TestPMUBackendGrowsWithContention(t *testing.T) {
	k := sim.NewKernel()
	ms := mem.NewSystem()
	prof := mem.Profile{BaseMissRate: 0.7, Intensity: 1, Sensitivity: 1, AccessesPerMs: 100}
	solo := ms.Register("solo", prof)
	solo.SetActive(true)
	c := newCPU(k, 16)
	p1 := c.NewProc("solo", solo, 0)
	p1.Run(50*sim.Millisecond, nil)
	k.Run()
	_, _, _, beSolo := p1.PMU().Fractions()

	// Same work with three contenders active.
	k2 := sim.NewKernel()
	ms2 := mem.NewSystem()
	m1 := ms2.Register("m1", prof)
	m1.SetActive(true)
	for i := 0; i < 3; i++ {
		o := ms2.Register("o", prof)
		o.SetActive(true)
	}
	c2 := New(k2, 16, sim.NewRNG(1))
	p2 := c2.NewProc("m1", m1, 0)
	p2.Run(50*sim.Millisecond, nil)
	k2.Run()
	_, _, _, beLoaded := p2.PMU().Fractions()

	if beLoaded <= beSolo {
		t.Fatalf("backend fraction did not grow: solo %v, loaded %v", beSolo, beLoaded)
	}
	if ipc := p2.PMU().IPC(); ipc <= 0 || ipc >= 2 {
		t.Fatalf("IPC out of plausible range: %v", ipc)
	}
}

func TestPMUFractionsSumToOne(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 8)
	p := c.NewProc("app", nil, 0)
	p.Run(25*sim.Millisecond, nil)
	k.Run()
	r, f, b, be := p.PMU().Fractions()
	if s := r + f + b + be; math.Abs(s-1) > 1e-9 {
		t.Fatalf("top-down fractions sum to %v, want 1", s)
	}
}

func TestResetAccounting(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 8)
	p := c.NewProc("app", nil, 1)
	p.Start()
	k.RunUntil(sim.Time(100 * sim.Millisecond))
	if p.Utilization() < 90 {
		t.Fatalf("warmup utilization = %v, want ~100", p.Utilization())
	}
	p.ResetAccounting()
	if got := p.CPUTime(); got != 0 {
		t.Fatalf("CPUTime after reset = %v, want 0", got)
	}
	k.RunUntil(sim.Time(200 * sim.Millisecond))
	if got := p.Utilization(); math.Abs(got-100) > 1 {
		t.Fatalf("post-reset utilization = %v, want ~100", got)
	}
}

func TestNegativeWorkClamped(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 8)
	p := c.NewProc("app", nil, 0)
	ran := false
	p.Run(-sim.Millisecond, func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("negative work never completed")
	}
	if k.Now() != 0 {
		t.Fatalf("negative work advanced clock to %v", k.Now())
	}
}

func TestDilationAtExactCapacity(t *testing.T) {
	k := sim.NewKernel()
	c := newCPU(k, 4)
	bg := c.NewProc("bg", nil, 3)
	bg.Start()
	// load = 3 background + 1 asking = 4 = cores → no dilation.
	if d := c.Dilation(); d != 1 {
		t.Fatalf("dilation at exact capacity = %v, want 1", d)
	}
}

// TestRunAllocatesNothing: once a Run record is free, a Run and its
// completion allocate nothing.
func TestRunAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	p := newCPU(k, 8).NewProc("app", mem.NewSystem().Register("app", mem.Profile{}), 0)
	done := func() {}
	if n := testing.AllocsPerRun(100, func() {
		p.Run(sim.Millisecond, done)
		k.Run()
	}); n != 0 {
		t.Fatalf("a Run cycle made %v allocations, want 0", n)
	}
}
