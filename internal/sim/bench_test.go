package sim

import "testing"

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

// BenchmarkKernelCancelChurn measures schedule+cancel pairs (timeouts
// and superseded frames cancel heavily in long simulations).
func BenchmarkKernelCancelChurn(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := k.At(k.Now()+Time(1000), fn)
		k.Cancel(id)
	}
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
			firstNormalSink = v
		})
	}
}

var firstNormalSink float64
