// Package sim provides a deterministic discrete-event simulation kernel.
//
// All of Pictor's hardware and software models run on top of this kernel:
// time is virtual (nanosecond resolution), events execute in strict
// (time, sequence) order, and all randomness flows through explicitly
// seeded sources, so every simulation is exactly reproducible. Every
// scheduled event runs; the kernel has no cancellation. Its resources are
// FIFO servers and SharedLink, a processor-sharing link that keeps one
// completion event and finishes equal transfers in arrival order.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time, in nanoseconds.
type Duration = time.Duration

// Common durations re-exported for readability at call sites.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Seconds converts a simulated timestamp to float seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts a simulated timestamp to float milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Add offsets a timestamp by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string {
	return Duration(t).String()
}

// DurationOfSeconds converts float seconds into a Duration, saturating on
// overflow so pathological model outputs cannot wrap the clock. NaN and
// non-positive inputs give 0.
func DurationOfSeconds(s float64) Duration {
	ns := s * float64(Second)
	if ns >= math.MaxInt64 {
		return Duration(math.MaxInt64)
	}
	// Written so NaN fails it too: converting NaN to an integer gives a
	// platform-dependent value (the minimum int64 on amd64, 0 on arm64).
	if !(ns > 0) {
		return 0
	}
	return Duration(ns)
}

// event is one scheduled callback. Event structs are pooled by the
// kernel: after firing, the struct is recycled for a future At/After,
// so steady-state scheduling does not allocate.
type event struct {
	at  Time
	seq uint64 // tie-break so same-time events run FIFO
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Kernel is the simulation event loop. The zero value is ready to use.
// A scheduled event always runs: there is no cancellation, so a model
// that may supersede an event (SharedLink) makes it a no-op instead.
type Kernel struct {
	now  Time
	heap eventHeap
	seq  uint64
	pool []*event // recycled event structs
}

// getEvent takes a recycled event struct or allocates one.
func (k *Kernel) getEvent() *event {
	if n := len(k.pool); n > 0 {
		ev := k.pool[n-1]
		k.pool[n-1] = nil
		k.pool = k.pool[:n-1]
		return ev
	}
	return &event{}
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now reports the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at absolute simulated time t. A scheduled event
// cannot be withdrawn; it runs when the clock reaches it. Scheduling in
// the past panics: it would silently corrupt causality.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := k.getEvent()
	ev.at, ev.seq, ev.fn = t, k.seq, fn
	k.seq++
	heap.Push(&k.heap, ev)
}

// After schedules fn to run d after the current time, as At does.
// Negative d is clamped to zero so model noise cannot schedule into the
// past, and a sum beyond the clock's range saturates at its last
// instant, so a delay that DurationOfSeconds saturated cannot wrap the
// clock.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	t := k.now.Add(d)
	if t < k.now {
		t = math.MaxInt64
	}
	k.At(t, fn)
}

// Step runs the single next event, reporting whether one existed.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	ev := heap.Pop(&k.heap).(*event)
	k.now = ev.at
	fn := ev.fn
	ev.fn = nil
	k.pool = append(k.pool, ev) // recycle before running: fn may schedule
	fn()
	return true
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t. Events scheduled after t remain pending.
func (k *Kernel) RunUntil(t Time) {
	for len(k.heap) > 0 && k.heap[0].at <= t {
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}
