package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestFIFOSingleServerSerializes(t *testing.T) {
	k := NewKernel()
	f := NewFIFO(k, "pipe", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		f.Use(func() Duration { return 10 * Millisecond }, func() {
			ends = append(ends, k.Now())
		})
	}
	k.Run()
	want := []Time{Time(10 * Millisecond), Time(20 * Millisecond), Time(30 * Millisecond)}
	if len(ends) != 3 {
		t.Fatalf("completed %d jobs, want 3", len(ends))
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestFIFOMultiServerOverlaps(t *testing.T) {
	k := NewKernel()
	f := NewFIFO(k, "dual", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		f.Use(func() Duration { return 10 * Millisecond }, func() {
			ends = append(ends, k.Now())
		})
	}
	k.Run()
	// Two at a time: finish at 10, 10, 20, 20 ms.
	if ends[0] != Time(10*Millisecond) || ends[1] != Time(10*Millisecond) {
		t.Fatalf("first pair = %v", ends[:2])
	}
	if ends[2] != Time(20*Millisecond) || ends[3] != Time(20*Millisecond) {
		t.Fatalf("second pair = %v", ends[2:])
	}
}

func TestFIFOQueueLen(t *testing.T) {
	k := NewKernel()
	f := NewFIFO(k, "q", 1)
	for i := 0; i < 3; i++ {
		f.Use(func() Duration { return Millisecond }, nil)
	}
	// Let the grants dispatch.
	k.RunUntil(0)
	if f.InService() != 1 {
		t.Fatalf("InService = %d, want 1", f.InService())
	}
	if f.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", f.QueueLen())
	}
	k.Run()
	if f.InService() != 0 || f.QueueLen() != 0 {
		t.Fatalf("resource not drained: busy=%d q=%d", f.InService(), f.QueueLen())
	}
}

func TestFIFOReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release without acquire did not panic")
		}
	}()
	k := NewKernel()
	NewFIFO(k, "x", 1).Release()
}

func TestFIFOBusyTimeAccounting(t *testing.T) {
	k := NewKernel()
	f := NewFIFO(k, "acct", 1)
	f.Use(func() Duration { return 5 * Millisecond }, nil)
	f.Use(func() Duration { return 7 * Millisecond }, nil)
	k.Run()
	if f.BusyTime() != 12*Millisecond {
		t.Fatalf("BusyTime = %v, want 12ms", f.BusyTime())
	}
}

// TestFIFOUseAllocatesNothing: once the records and the waiter queue
// have grown, two jobs contending for one server allocate nothing.
func TestFIFOUseAllocatesNothing(t *testing.T) {
	k := NewKernel()
	f := NewFIFO(k, "engine", 1)
	hold := func() Duration { return Millisecond }
	done := func() {}
	if n := testing.AllocsPerRun(100, func() {
		f.Use(hold, done)
		f.Use(hold, done)
		k.Run()
	}); n != 0 {
		t.Fatalf("two contending Use calls made %v allocations, want 0", n)
	}
}

func TestSharedLinkSingleTransferRate(t *testing.T) {
	k := NewKernel()
	l := NewSharedLink(k, "nic", 1000) // 1000 B/s
	var done Time
	l.Transfer(500, func() { done = k.Now() })
	k.Run()
	if got := done.Seconds(); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("500B at 1000B/s finished at %vs, want 0.5s", got)
	}
}

func TestSharedLinkFairSharing(t *testing.T) {
	k := NewKernel()
	l := NewSharedLink(k, "bus", 1000)
	var aDone, bDone Time
	// Two equal transfers started together: each sees 500 B/s, both end at 1s.
	l.Transfer(500, func() { aDone = k.Now() })
	l.Transfer(500, func() { bDone = k.Now() })
	k.Run()
	if math.Abs(aDone.Seconds()-1.0) > 1e-6 || math.Abs(bDone.Seconds()-1.0) > 1e-6 {
		t.Fatalf("equal sharers finished at %v and %v, want 1s each", aDone, bDone)
	}
}

func TestSharedLinkLateJoinerSlowsFirst(t *testing.T) {
	k := NewKernel()
	l := NewSharedLink(k, "bus", 1000)
	var aDone Time
	l.Transfer(1000, func() { aDone = k.Now() })
	k.After(500*Millisecond, func() {
		l.Transfer(1000, nil)
	})
	k.Run()
	// A moves 500B alone in 0.5s, then shares: remaining 500B at 500B/s = 1s.
	// A finishes at 1.5s.
	if math.Abs(aDone.Seconds()-1.5) > 1e-3 {
		t.Fatalf("first transfer finished at %vs, want 1.5s", aDone.Seconds())
	}
}

func TestSharedLinkZeroSize(t *testing.T) {
	k := NewKernel()
	l := NewSharedLink(k, "bus", 1000)
	done := false
	l.Transfer(0, func() { done = true })
	k.Run()
	if !done {
		t.Fatal("zero-size transfer never completed")
	}
	if k.Now() != 0 {
		t.Fatalf("zero-size transfer advanced clock to %v", k.Now())
	}
}

// TestSharedLinkInfiniteTransfer: a transfer of infinitely many bytes
// plans its completion at the clock's last instant instead of wrapping
// the clock, and there plans nothing more, so the queue empties. A
// finite transfer beside it completes once; the infinite one never does.
func TestSharedLinkInfiniteTransfer(t *testing.T) {
	for beside := 0; beside <= 1; beside++ {
		k := NewKernel()
		k.RunUntil(1) // from 0 the sum would not wrap
		l := NewSharedLink(k, "bus", 1000)
		done, finite := false, 0
		l.Transfer(math.Inf(1), func() { done = true })
		for i := 0; i < beside; i++ {
			l.Transfer(500, func() { finite++ })
		}
		k.RunUntil(math.MaxInt64 - 1)
		for i := 0; i < 1000 && k.Step(); i++ {
		}
		if k.Step() {
			t.Fatalf("%d beside: 1,000 steps at %v left the queue non-empty", beside, k.Now())
		}
		if done {
			t.Fatalf("%d beside: an infinite transfer completed", beside)
		}
		if finite != beside {
			t.Fatalf("%d beside: finite transfers completed %d times, want %d", beside, finite, beside)
		}
	}
}

// TestSharedLinkTransferAllocatesNothing: once the link's records are
// free, a transfer alone and two overlapping ones (the second joining
// 100 µs into the first, so the link plans its completion three times)
// allocate nothing from start to completion.
func TestSharedLinkTransferAllocatesNothing(t *testing.T) {
	const frame = 1920 * 1080 * 4
	for sharers := 1; sharers <= 2; sharers++ {
		k := NewKernel()
		l := NewSharedLink(k, "pcie-down", 15.75e9)
		done := func() {}
		join := func() { l.Transfer(frame, done) }
		if n := testing.AllocsPerRun(100, func() {
			l.Transfer(frame, done)
			if sharers == 2 {
				k.After(100*Microsecond, join)
			}
			k.Run()
		}); n != 0 {
			t.Errorf("%d sharers: a transfer cycle made %v allocations, want 0", sharers, n)
		}
	}
}

// TestSharedLinkTiesFinishInArrivalOrder: equal transfers started at
// the same instant finish in the order they were started, the first at
// the fair-share time and each later one 1 ns after the one before, in
// every fresh kernel.
func TestSharedLinkTiesFinishInArrivalOrder(t *testing.T) {
	fair := Time(1500 * Millisecond) // 3 × 500 B at 1000 B/s
	wantOrder := []int{0, 1, 2}
	wantAt := []Time{fair, fair + 1, fair + 2}
	for run := 0; run < 200; run++ {
		k := NewKernel()
		l := NewSharedLink(k, "bus", 1000)
		var order []int
		var at []Time
		for i := range wantOrder {
			l.Transfer(500, func() {
				order = append(order, i)
				at = append(at, k.Now())
			})
		}
		k.Run()
		if !slices.Equal(order, wantOrder) || !slices.Equal(at, wantAt) {
			t.Fatalf("kernel %d: transfers finished in order %v at %v, want %v at %v",
				run, order, at, wantOrder, wantAt)
		}
	}
}

// TestSharedLinkOvertakenTransfer: a small transfer that joins a long
// one finishes first, and the long one's completion, planned before the
// join, must not fire: each transfer completes exactly once, on time.
func TestSharedLinkOvertakenTransfer(t *testing.T) {
	k := NewKernel()
	l := NewSharedLink(k, "bus", 1000)
	var long, short []Time
	l.Transfer(1000, func() { long = append(long, k.Now()) })
	k.After(100*Millisecond, func() {
		l.Transfer(10, func() { short = append(short, k.Now()) })
	})
	k.Run()
	// The 10 B share 500 B/s for 20 ms; the long transfer then has 890 B
	// left alone at 1000 B/s.
	if len(short) != 1 || math.Abs(short[0].Seconds()-0.12) > 1e-6 {
		t.Fatalf("short transfer completed at %v, want once at 120ms", short)
	}
	if len(long) != 1 || math.Abs(long[0].Seconds()-1.01) > 1e-6 {
		t.Fatalf("long transfer completed at %v, want once at 1.01s", long)
	}
}

// Property: total transfer time through a shared link never beats the
// ideal capacity bound sum(bytes)/capacity, and work conservation holds
// within numerical tolerance when transfers all start at time zero.
func TestSharedLinkWorkConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		k := NewKernel()
		l := NewSharedLink(k, "bus", 1e6)
		var total float64
		var last Time
		any := false
		for _, s := range sizes {
			if s == 0 {
				continue
			}
			any = true
			total += float64(s)
			l.Transfer(float64(s), func() {
				if k.Now() > last {
					last = k.Now()
				}
			})
		}
		k.Run()
		if !any {
			return true
		}
		ideal := total / 1e6
		return last.Seconds() >= ideal-1e-6 && last.Seconds() <= ideal*1.01+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGForkStability(t *testing.T) {
	a := NewRNG(1).Fork("gpu")
	b := NewRNG(1).Fork("gpu")
	if a.Float64() != b.Float64() {
		t.Fatal("same-label forks diverged")
	}
	c := NewRNG(1).Fork("cpu")
	d := NewRNG(1).Fork("gpu")
	if c.Float64() == d.Float64() {
		t.Fatal("different-label forks coincided (suspicious)")
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := g.LogNormalAround(5, 0.3); v <= 0 {
			t.Fatalf("lognormal produced %v", v)
		}
	}
	if g.LogNormalAround(0, 0.3) != 0 {
		t.Fatal("lognormal of zero median should be zero")
	}
}

func TestRNGJitterClose(t *testing.T) {
	g := NewRNG(9)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		sum += float64(g.Jitter(10*Millisecond, 0.05))
	}
	mean := sum / n / float64(Millisecond)
	if mean < 9.5 || mean > 10.5 {
		t.Fatalf("jitter mean = %vms, want ~10ms", mean)
	}
}
