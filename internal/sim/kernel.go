// Package sim provides a deterministic discrete-event simulation kernel.
//
// All of Pictor's hardware and software models run on top of this kernel:
// time is virtual (nanosecond resolution), events execute in strict
// (time, sequence) order, and all randomness flows through explicitly
// seeded sources, so every simulation is exactly reproducible. Every
// scheduled event runs; the kernel has no cancellation. Its resources are
// FIFO servers and SharedLink, a processor-sharing link that keeps one
// completion event and finishes equal transfers in arrival order.
//
// Scheduling allocates nothing in steady state. The kernel keeps its
// queue as a heap of event values, and each resource keeps the records
// its callbacks run from and reuses them once they have fired: a record
// holds one operation's state, and its callback is a method value bound
// once, when the record is built. The hw and netsim models recycle
// their records the same way.
package sim

import (
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

// event is one scheduled callback. The kernel keeps events by value in
// its heap slice, so scheduling one allocates nothing once the slice has
// grown to the queue's deepest point.
type event struct {
	at  Time
	seq uint64 // tie-break so same-time events run FIFO
	fn  func()
}

// before reports whether e runs before o: earlier time first, then
// earlier scheduling.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel is the simulation event loop. The zero value is ready to use.
// A scheduled event always runs: there is no cancellation, so a model
// that may supersede an event (SharedLink) makes it a no-op instead.
// Its queue is a binary min-heap of event values ordered by (time,
// sequence); the order is total, so the run order does not depend on
// how the heap arranges ties.
type Kernel struct {
	now    Time
	events []event // binary min-heap by (at, seq)
	seq    uint64
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
	ev := event{at: t, seq: k.seq, fn: fn}
	k.seq++
	// Sift up: move parents that run after ev down into the hole.
	h := append(k.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	k.events = h
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
	h := k.events
	n := len(h) - 1
	if n < 0 {
		return false
	}
	ev := h[0]
	// Sift the last event down from the root: move children that run
	// before it up into the hole.
	last := h[n]
	h[n] = event{} // drop the callback so the slice does not keep it alive
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	k.events = h
	k.now = ev.at
	ev.fn()
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
	for len(k.events) > 0 && k.events[0].at <= t {
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}
