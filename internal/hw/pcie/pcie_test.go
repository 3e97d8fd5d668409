package pcie

import (
	"math"
	"testing"

	"pictor/internal/sim"
)

func TestTransferTime(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, 1e9) // 1 GB/s for easy math
	c := b.NewClient("app")
	var end sim.Time
	c.Transfer(FromGPU, 1e6, func() { end = k.Now() }) // 1 MB
	k.Run()
	want := 1e-3 + b.DMASetup.Seconds() // 1ms wire + setup
	if math.Abs(end.Seconds()-want) > 1e-6 {
		t.Fatalf("1MB at 1GB/s took %vs, want %vs", end.Seconds(), want)
	}
}

func TestDirectionsAreIndependent(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, 1e9)
	c := b.NewClient("app")
	var upEnd, downEnd sim.Time
	c.Transfer(ToGPU, 1e6, func() { upEnd = k.Now() })
	c.Transfer(FromGPU, 1e6, func() { downEnd = k.Now() })
	k.Run()
	// Equal-size transfers in opposite directions don't share bandwidth.
	if upEnd != downEnd {
		t.Fatalf("opposite directions interfered: up %v, down %v", upEnd, downEnd)
	}
}

func TestSameDirectionShares(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, 1e9)
	c1 := b.NewClient("a")
	c2 := b.NewClient("b")
	var end1 sim.Time
	c1.Transfer(FromGPU, 1e6, func() { end1 = k.Now() })
	c2.Transfer(FromGPU, 1e6, nil)
	k.Run()
	soloTime := 1e-3 + b.DMASetup.Seconds()
	if end1.Seconds() <= soloTime {
		t.Fatalf("shared-direction transfer finished at %v, want > solo %v", end1.Seconds(), soloTime)
	}
}

func TestByteAccounting(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, 1e9)
	c := b.NewClient("app")
	c.Transfer(ToGPU, 1000, nil)
	c.Transfer(FromGPU, 2000, nil)
	c.Transfer(FromGPU, 3000, nil)
	k.Run()
	up, down := c.Bytes()
	if up != 1000 || down != 5000 {
		t.Fatalf("Bytes = (%v, %v), want (1000, 5000)", up, down)
	}
}

func TestBandwidthMBs(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, 1e9)
	c := b.NewClient("app")
	c.Transfer(FromGPU, 10e6, nil)
	k.Run()
	k.RunUntil(sim.Time(sim.Second))
	_, down := c.BandwidthMBs()
	if math.Abs(down-10) > 0.1 {
		t.Fatalf("down bandwidth = %v MB/s, want ~10", down)
	}
}

func TestResetAccounting(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, 1e9)
	c := b.NewClient("app")
	c.Transfer(FromGPU, 10e6, nil)
	k.Run()
	c.ResetAccounting()
	up, down := c.Bytes()
	if up != 0 || down != 0 {
		t.Fatalf("Bytes after reset = (%v, %v), want zeros", up, down)
	}
}

func TestNegativeSizeClamped(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, 1e9)
	c := b.NewClient("app")
	done := false
	c.Transfer(FromGPU, -5, func() { done = true })
	k.Run()
	if !done {
		t.Fatal("negative-size transfer never completed")
	}
}

func TestDirectionString(t *testing.T) {
	if ToGPU.String() != "to-gpu" || FromGPU.String() != "from-gpu" {
		t.Fatal("direction strings wrong")
	}
}

// TestTransferAllocatesNothing: once the client's and the link's records
// are free, a DMA from set-up to completion allocates nothing.
func TestTransferAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, 15.75e9).NewClient("app")
	done := func() {}
	if n := testing.AllocsPerRun(100, func() {
		c.Transfer(FromGPU, 1920*1080*4, done)
		k.Run()
	}); n != 0 {
		t.Fatalf("a Transfer cycle made %v allocations, want 0", n)
	}
}
