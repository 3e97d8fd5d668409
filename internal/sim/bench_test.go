package sim

import (
	"fmt"
	"testing"
)

// BenchmarkKernelEventChurn measures the scheduler's per-event cost: a
// self-sustaining chain of After calls, the shape every pipeline loop
// (app, proxy, client) imposes on the kernel.
func BenchmarkKernelEventChurn(b *testing.B) {
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(Millisecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(Millisecond, tick)
	k.Run()
}

// BenchmarkKernelEventChurnPending16 is BenchmarkKernelEventChurn with
// 16 events pending, the deepest queue a seed-1 churn-full invocation
// reaches (its average push finds 3.44 queued), so each event pays the
// heap's sift. Sixteen chains tick at periods of 1–16 µs, so their
// events keep changing order.
func BenchmarkKernelEventChurnPending16(b *testing.B) {
	k := NewKernel()
	n := 0
	ticks := make([]func(), 16)
	for i := range ticks {
		period := Duration(i+1) * Microsecond
		ticks[i] = func() {
			n++
			if n < b.N {
				k.After(period, ticks[i])
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, tick := range ticks {
		k.After(Millisecond, tick)
	}
	k.Run()
}

// BenchmarkSharedLinkTransfer measures one frame copy through a link,
// start to completion. "single" is the traffic the simulator measures:
// a link almost never carries two transfers at once. In "overlap2" a
// second copy joins 100 µs into the first, so the link plans its
// completion event again on the join and on the first completion.
func BenchmarkSharedLinkTransfer(b *testing.B) {
	const frame = 1920 * 1080 * 4 // bytes of one RGBA 1080p frame
	bench := func(b *testing.B, sharers int) {
		k := NewKernel()
		l := NewSharedLink(k, "pcie-down", 15.75e9)
		join := func() { l.Transfer(frame, nil) }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Transfer(frame, nil)
			for j := 1; j < sharers; j++ {
				k.After(Duration(j)*100*Microsecond, join)
			}
			k.Run()
		}
	}
	b.Run("single", func(b *testing.B) { bench(b, 1) })
	b.Run("overlap2", func(b *testing.B) { bench(b, 2) })
}

// BenchmarkFirstNormal measures the one-draw normal on seeds the
// ziggurat's first test accepts (no source at all) and on seeds it
// rejects (the stdlib's loop over the replay source).
func BenchmarkFirstNormal(b *testing.B) {
	accept, reject := firstNormalSeeds(64)
	FirstNormal(0) // first-use verification stays out of the timings
	for _, bc := range []struct {
		name  string
		seeds []int64
	}{{"accept", accept}, {"reject", reject}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			v := 0.0
			for i := 0; i < b.N; i++ {
				v += FirstNormal(bc.seeds[i%len(bc.seeds)])
			}
			drawSink = v
		})
	}
}

var drawSink float64

// BenchmarkNewRNG measures a stream from creation to its last draw, for
// the lengths streams have in a churn run: one that only forks (a
// cluster's root, its cpu streams), a few draws, the last draw before
// the register fills, and 1,000 draws, past the fill. "steady" is one
// draw of a stream well past its fill, the per-frame draw of a long run.
func BenchmarkNewRNG(b *testing.B) {
	NewRNG(0) // the replica's first-use check stays out of the timings
	b.Run("steady", func(b *testing.B) {
		g := NewRNG(1)
		for k := 0; k < 1000; k++ {
			g.Float64()
		}
		b.ReportAllocs()
		b.ResetTimer()
		v := 0.0
		for i := 0; i < b.N; i++ {
			v += g.Float64()
		}
		drawSink = v
	})
	b.Run("fork", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewRNG(int64(i)).Fork("child")
		}
	})
	for _, draws := range []int{8, 272, 1000} {
		b.Run(fmt.Sprintf("draws%d", draws), func(b *testing.B) {
			b.ReportAllocs()
			v := 0.0
			for i := 0; i < b.N; i++ {
				g := NewRNG(int64(i))
				for k := 0; k < draws; k++ {
					v += g.Float64()
				}
			}
			drawSink = v
		})
	}
}
