// Package x11 models the X Window System pieces the cloud rendering
// stack touches: the per-application event queue (XNextEvent — hook4's
// interception point), event injection by the server proxy (the PS
// stage), and XGetWindowAttributes — the notoriously slow round trip to
// the X server that §6's first optimization memoizes away.
package x11

import (
	"pictor/internal/hw/cpu"
	"pictor/internal/proto"
	"pictor/internal/sim"
)

// Display is one application's connection to the (virtual) X server.
type Display struct {
	k   *sim.Kernel
	rng *sim.RNG

	queue []proto.Input

	width, height int
	// attrBaseMs is the mean XGetWindowAttributes round-trip time.
	// The paper measures 6–9 ms.
	attrBaseMs float64

	resolutionChanges int64

	free *attrCall // recycled GetWindowAttributes records
}

// attrCall is the record of one GetWindowAttributes round trip in
// flight, recycled through Display.free. Its two steps are method
// values bound once, when the record is built.
type attrCall struct {
	d        *Display
	wait     sim.Duration
	done     func(w, h int)
	sent     func() // the request left the caller's CPU
	answered func() // the X server replied
	next     *attrCall
}

// NewDisplay creates a display with the given window resolution.
func NewDisplay(k *sim.Kernel, rng *sim.RNG, width, height int) *Display {
	return &Display{
		k:          k,
		rng:        rng.Fork("x11"),
		width:      width,
		height:     height,
		attrBaseMs: 7.5,
	}
}

// Push injects an input event into the application's queue (the tail
// end of the PS stage; the server proxy charges the CPU work).
func (d *Display) Push(in proto.Input) {
	d.queue = append(d.queue, in)
}

// Drain removes and returns all queued events (the application calling
// XNextEvent until empty at the top of its logic loop). The returned
// slice is the queue's own storage, valid until the next Push: the
// caller consumes it synchronously (as XNextEvent semantics imply), and
// reusing the backing array keeps the per-tick event path
// allocation-free.
func (d *Display) Drain() []proto.Input {
	out := d.queue
	d.queue = d.queue[:0]
	return out
}

// Pending reports queued events without removing them.
func (d *Display) Pending() int { return len(d.queue) }

// Resolution reports the window size.
func (d *Display) Resolution() (w, h int) { return d.width, d.height }

// SetResolution changes the window size, which invalidates any memoized
// attributes (callers watch ResolutionEpoch).
func (d *Display) SetResolution(w, h int) {
	if w == d.width && h == d.height {
		return
	}
	d.width, d.height = w, h
	d.resolutionChanges++
}

// ResolutionEpoch increments whenever the resolution changes; the
// interposer's memoization uses it as a cache-invalidation key.
func (d *Display) ResolutionEpoch() int64 { return d.resolutionChanges }

// GetWindowAttributes performs the real X round trip: a small CPU cost
// on the calling process plus a long wall-clock wait on the X server
// (6–9 ms, worse when the machine is loaded). done receives the window
// size.
func (d *Display) GetWindowAttributes(proc *cpu.Proc, done func(w, h int)) {
	// Uniform 6–9 ms, per the paper. The conversion rounds the product,
	// so no architecture fuses it into the add.
	ms := float64(d.rng.Float64()*3) + 6
	r := d.free
	if r == nil {
		r = &attrCall{d: d}
		r.sent = r.request
		r.answered = r.reply
	} else {
		d.free = r.next
	}
	r.wait = sim.DurationOfSeconds(ms / 1e3)
	r.done = done
	proc.Run(150*sim.Microsecond, r.sent)
}

// request waits out the X server's round trip.
func (r *attrCall) request() { r.d.k.After(r.wait, r.answered) }

// reply recycles r before calling done, which may start the next round
// trip on the same record.
func (r *attrCall) reply() {
	d, done := r.d, r.done
	r.done = nil
	r.next, d.free = d.free, r
	done(d.width, d.height)
}
