package netsim

import (
	"math"
	"testing"

	"pictor/internal/sim"
)

func noJitter() Config {
	return Config{
		BandwidthBytesPerSec: 125e6, // 1 Gbps
		PropagationDelay:     2 * sim.Millisecond,
		Jitter:               0,
	}
}

func TestInputLatencySmall(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "inst0", noJitter(), sim.NewRNG(1))
	var end sim.Time
	l.SendToServer(100, func() { end = k.Now() }) // 100-byte input
	k.Run()
	// Serialization of 100B at 125MB/s is negligible; ~propagation.
	if end.Millis() < 1.9 || end.Millis() > 2.5 {
		t.Fatalf("input latency = %vms, want ~2ms", end.Millis())
	}
}

func TestFrameSerializationDominates(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "inst0", noJitter(), sim.NewRNG(1))
	var end sim.Time
	l.SendToClient(2.5e6, func() { end = k.Now() }) // 2.5 MB compressed frame
	k.Run()
	want := 2.5e6/125e6*1000 + 2 // 20ms wire + 2ms prop
	if math.Abs(end.Millis()-want) > 0.5 {
		t.Fatalf("frame latency = %vms, want ~%vms", end.Millis(), want)
	}
}

func TestDuplexIndependent(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "inst0", noJitter(), sim.NewRNG(1))
	var upEnd, downEnd sim.Time
	l.SendToServer(1e6, func() { upEnd = k.Now() })
	l.SendToClient(1e6, func() { downEnd = k.Now() })
	k.Run()
	if upEnd != downEnd {
		t.Fatalf("duplex directions interfered: %v vs %v", upEnd, downEnd)
	}
}

func TestConcurrentFramesShareDownlink(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "inst0", noJitter(), sim.NewRNG(1))
	var first sim.Time
	l.SendToClient(1e6, func() { first = k.Now() })
	l.SendToClient(1e6, nil)
	k.Run()
	solo := 1e6/125e6*1000 + 2
	if first.Millis() <= solo {
		t.Fatalf("shared downlink frame at %vms, want > solo %vms", first.Millis(), solo)
	}
}

func TestBandwidthAccounting(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "inst0", noJitter(), sim.NewRNG(1))
	l.SendToServer(1000, nil)
	l.SendToClient(5e6, nil)
	k.Run()
	up, down := l.Bytes()
	if up != 1000 || down != 5e6 {
		t.Fatalf("Bytes = (%v, %v), want (1000, 5e6)", up, down)
	}
	k.RunUntil(sim.Time(sim.Second))
	_, downMbps := l.BandwidthMbps()
	if math.Abs(downMbps-40) > 1 {
		t.Fatalf("down bandwidth = %v Mbps, want ~40", downMbps)
	}
}

func TestResetAccounting(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "inst0", noJitter(), sim.NewRNG(1))
	l.SendToClient(5e6, nil)
	k.Run()
	l.ResetAccounting()
	if _, down := l.Bytes(); down != 0 {
		t.Fatalf("down bytes after reset = %v, want 0", down)
	}
}

func TestZeroConfigFallsBackToDefault(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "inst0", Config{}, sim.NewRNG(1))
	done := false
	l.SendToServer(100, func() { done = true })
	k.Run()
	if !done {
		t.Fatal("default-config link did not deliver")
	}
}

func TestJitterVariesLatency(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	l := NewLink(k, "inst0", cfg, sim.NewRNG(7))
	seen := map[sim.Time]bool{}
	var sendNext func(i int)
	sendNext = func(i int) {
		if i >= 20 {
			return
		}
		start := k.Now()
		l.SendToServer(100, func() {
			seen[k.Now()-start] = true
			sendNext(i + 1)
		})
	}
	sendNext(0)
	k.Run()
	if len(seen) < 10 {
		t.Fatalf("jittered latencies collapsed to %d distinct values", len(seen))
	}
}

// TestSendAllocatesNothing: once the link's records are free, a frame
// from send to delivery allocates nothing.
func TestSendAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "inst0", DefaultConfig(), sim.NewRNG(1))
	done := func() {}
	if n := testing.AllocsPerRun(100, func() {
		l.SendToClient(2.5e6, done)
		k.Run()
	}); n != 0 {
		t.Fatalf("a SendToClient cycle made %v allocations, want 0", n)
	}
}
