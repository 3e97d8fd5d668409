package sim

import "slices"

// FIFO is a first-come-first-served resource with a fixed number of
// servers (e.g. a GPU render engine, an IPC pipe). Jobs acquire a slot,
// hold it for a caller-computed service time, and release it.
type FIFO struct {
	k        *Kernel
	name     string
	servers  int
	busy     int
	waiters  []func()
	busyTime Duration // aggregate busy time across servers, for utilization
}

// NewFIFO creates a FIFO resource with the given number of servers.
func NewFIFO(k *Kernel, name string, servers int) *FIFO {
	if servers < 1 {
		panic("sim: FIFO needs at least one server")
	}
	return &FIFO{k: k, name: name, servers: servers}
}

// Acquire requests a server slot; granted runs (as a new event) once a
// slot is free. The holder must call Release exactly once.
func (f *FIFO) Acquire(granted func()) {
	if f.busy < f.servers {
		f.busy++
		f.k.After(0, granted)
		return
	}
	f.waiters = append(f.waiters, granted)
}

// Release frees a slot, waking the oldest waiter if any.
func (f *FIFO) Release() {
	if f.busy <= 0 {
		panic("sim: FIFO release without acquire: " + f.name)
	}
	if len(f.waiters) > 0 {
		next := f.waiters[0]
		f.waiters = f.waiters[1:]
		f.k.After(0, next)
		return
	}
	f.busy--
}

// Use acquires a slot, holds it for hold(), then releases and calls done.
// hold is evaluated at grant time so it can observe contention state.
func (f *FIFO) Use(hold func() Duration, done func()) {
	f.Acquire(func() {
		start := f.k.Now()
		d := hold()
		f.k.After(d, func() {
			f.busyTime += f.k.Now().Sub(start)
			f.Release()
			if done != nil {
				done()
			}
		})
	})
}

// QueueLen reports the number of jobs waiting (not in service).
func (f *FIFO) QueueLen() int { return len(f.waiters) }

// InService reports the number of jobs currently holding slots.
func (f *FIFO) InService() int { return f.busy }

// BusyTime reports aggregate slot-busy time (for utilization accounting).
func (f *FIFO) BusyTime() Duration { return f.busyTime }

// SharedLink models a bandwidth resource shared by concurrent transfers
// using ideal processor sharing: with n active transfers each proceeds at
// capacity/n. This is the standard fluid model for buses (PCIe) and NICs.
//
// The link schedules one completion event at a time: that of the transfer
// with the fewest bytes left, the earliest started on a tie, so equal
// transfers finish in arrival order. Every change in the set of active
// transfers plans that event again; the plan number it carries makes a
// superseded event do nothing when it fires.
type SharedLink struct {
	k        *Kernel
	capacity float64     // bytes per second
	active   []*transfer // in arrival order
	lastAt   Time
	plan     uint64 // number of the live completion event
}

type transfer struct {
	remaining float64 // bytes left
	done      func()
}

// NewSharedLink creates a shared link with the given capacity in bytes/sec.
func NewSharedLink(k *Kernel, name string, capacityBytesPerSec float64) *SharedLink {
	if capacityBytesPerSec <= 0 {
		panic("sim: link capacity must be positive: " + name)
	}
	return &SharedLink{k: k, capacity: capacityBytesPerSec}
}

// Transfer starts moving size bytes; done fires when the last byte lands.
// Zero-size transfers complete immediately (next event cycle).
func (l *SharedLink) Transfer(size float64, done func()) {
	l.advance()
	if size <= 0 {
		if done != nil {
			l.k.After(0, done)
		}
		return
	}
	l.active = append(l.active, &transfer{remaining: size, done: done})
	l.reschedule()
}

// advance drains progress for all active transfers up to now.
func (l *SharedLink) advance() {
	now := l.k.Now()
	if now == l.lastAt {
		return
	}
	dt := now.Sub(l.lastAt).Seconds()
	l.lastAt = now
	n := len(l.active)
	if n == 0 || dt <= 0 {
		return
	}
	rate := l.capacity / float64(n)
	delta := rate * dt
	for _, t := range l.active {
		t.remaining -= min(delta, t.remaining)
	}
}

// reschedule plans the completion of the transfer with the fewest bytes
// left after a membership change, superseding the event planned before.
func (l *SharedLink) reschedule() {
	l.plan++
	if len(l.active) == 0 {
		return
	}
	next := l.active[0]
	for _, t := range l.active[1:] {
		if t.remaining < next.remaining {
			next = t
		}
	}
	rate := l.capacity / float64(len(l.active))
	d := DurationOfSeconds(next.remaining / rate)
	if d <= 0 {
		// Sub-nanosecond completions must still advance the clock,
		// or the finish/reschedule cycle would spin at zero time.
		d = Nanosecond
	}
	plan := l.plan
	l.k.After(d, func() { l.finish(next, plan) })
}

// finish completes t if plan is still the link's live plan.
func (l *SharedLink) finish(t *transfer, plan uint64) {
	if plan != l.plan {
		return
	}
	l.advance()
	// Floating-point drift can leave a sliver; treat anything a 1 ns
	// tick can drain as done (the clock may not resolve smaller).
	if t.remaining > l.capacity*1e-9+1 {
		l.reschedule()
		return
	}
	l.active = slices.DeleteFunc(l.active, func(a *transfer) bool { return a == t })
	l.reschedule()
	if t.done != nil {
		t.done()
	}
}
