package sim

import (
	"math"
	"slices"
)

// FIFO is a first-come-first-served resource with a fixed number of
// servers (e.g. a GPU render engine, an IPC pipe). Jobs acquire a slot,
// hold it for a caller-computed service time, and release it.
type FIFO struct {
	k        *Kernel
	name     string
	servers  int
	busy     int
	waiters  []func() // oldest first; popped by shifting, so storage is reused
	busyTime Duration // aggregate busy time across servers, for utilization
	free     *use     // recycled Use records
}

// use is the record of one FIFO.Use, recycled through FIFO.free. Its
// grant and release are method values bound once, when the record is
// built, so a Use allocates nothing once a record is free.
type use struct {
	f              *FIFO
	hold           func() Duration
	done           func()
	start          Time
	grant, release func()
	next           *use // next free record
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
		f.waiters = slices.Delete(f.waiters, 0, 1)
		f.k.After(0, next)
		return
	}
	f.busy--
}

// Use acquires a slot, holds it for hold(), then releases and calls done.
// hold is evaluated at grant time so it can observe contention state.
func (f *FIFO) Use(hold func() Duration, done func()) {
	u := f.free
	if u == nil {
		u = &use{f: f}
		u.grant, u.release = u.granted, u.released
	} else {
		f.free = u.next
	}
	u.hold, u.done = hold, done
	f.Acquire(u.grant)
}

// granted starts the hold once a slot is free.
func (u *use) granted() {
	u.start = u.f.k.Now()
	u.f.k.After(u.hold(), u.release)
}

// released ends the hold and recycles u before calling done, which may
// start the next Use on the same record.
func (u *use) released() {
	f, start, done := u.f, u.start, u.done
	u.hold, u.done = nil, nil
	u.next, f.free = f.free, u
	f.busyTime += f.k.Now().Sub(start)
	f.Release()
	if done != nil {
		done()
	}
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
// superseded event do nothing when it fires. At the clock's last instant
// a transfer that is still unfinished is planned no further, since no
// later instant exists to drain it.
type SharedLink struct {
	k        *Kernel
	capacity float64     // bytes per second
	active   []*transfer // in arrival order
	lastAt   Time
	plan     uint64      // number of the live completion event
	freeT    *transfer   // recycled transfer records
	freeC    *completion // recycled completion records
}

// transfer is one active transfer, recycled through SharedLink.freeT
// once it completes.
type transfer struct {
	remaining float64 // bytes left
	done      func()
	next      *transfer // next free record
}

// completion is one planned completion event. It returns to
// SharedLink.freeC only when its event fires, superseded or not, so a
// pending event never shares its record. fire is the method value
// c.fired, bound once when the record is built.
type completion struct {
	l    *SharedLink
	t    *transfer // the transfer planned to finish
	plan uint64    // the link's plan number when planned
	fire func()
	next *completion // next free record
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
	t := l.freeT
	if t == nil {
		t = &transfer{}
	} else {
		l.freeT = t.next
	}
	t.remaining, t.done = size, done
	l.active = append(l.active, t)
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
	c := l.freeC
	if c == nil {
		c = &completion{l: l}
		c.fire = c.fired
	} else {
		l.freeC = c.next
	}
	c.t, c.plan = next, l.plan
	l.k.After(d, c.fire)
}

// fired recycles c and, if c is still the live plan, completes its
// transfer, or plans again if a sliver of it is left. A superseded c may
// name a transfer that has completed and been recycled since, so the
// plan is checked before the transfer is touched.
func (c *completion) fired() {
	l, t, plan := c.l, c.t, c.plan
	c.t = nil
	c.next, l.freeC = l.freeC, c
	if plan != l.plan {
		return
	}
	l.advance()
	// Floating-point drift can leave a sliver; treat anything a 1 ns
	// tick can drain as done (the clock may not resolve smaller).
	if t.remaining > l.capacity*1e-9+1 {
		// At the clock's last instant no later event can drain the
		// rest, and planning again would repeat this one forever.
		if l.k.Now() < math.MaxInt64 {
			l.reschedule()
		}
		return
	}
	i := slices.Index(l.active, t)
	l.active = slices.Delete(l.active, i, i+1)
	done := t.done
	t.done = nil
	t.next, l.freeT = l.freeT, t
	l.reschedule()
	if done != nil {
		done()
	}
}
