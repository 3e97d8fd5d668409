// Package netsim models the client↔server network. The paper gives each
// instance its own 1 Gbps NIC (chosen because it behaves like 5G for
// frame-transmission latency), so each instance gets an independent
// duplex link: serialization at line rate shared among that instance's
// in-flight messages, plus propagation delay with jitter.
package netsim

import "pictor/internal/sim"

// Config describes one instance's network path.
type Config struct {
	// BandwidthBytesPerSec is the line rate (1 Gbps = 125e6).
	BandwidthBytesPerSec float64
	// PropagationDelay is the one-way base latency.
	PropagationDelay sim.Duration
	// Jitter is the lognormal sigma applied to propagation.
	Jitter float64
}

// DefaultConfig matches the paper's testbed: 1 Gbps, LAN-to-metro-style
// one-way delay around 2 ms.
func DefaultConfig() Config {
	return Config{
		BandwidthBytesPerSec: 125e6,
		PropagationDelay:     2 * sim.Millisecond,
		Jitter:               0.18,
	}
}

// Link is one instance's duplex network path.
type Link struct {
	k       *sim.Kernel
	rng     *sim.RNG
	cfg     Config
	up      *sim.SharedLink // client→server (inputs)
	down    *sim.SharedLink // server→client (frames)
	started sim.Time

	upBytes   float64
	downBytes float64
	free      *message // recycled send records
}

// message is the record of one message on the wire, recycled through
// Link.free. fire is the method value m.serialized, bound once when the
// record is built, so a send allocates nothing once a record is free.
type message struct {
	l    *Link
	prop sim.Duration // propagation delay, drawn when sent
	done func()
	fire func()
	next *message // next free record
}

// NewLink creates a duplex link.
func NewLink(k *sim.Kernel, name string, cfg Config, rng *sim.RNG) *Link {
	if cfg.BandwidthBytesPerSec <= 0 {
		cfg = DefaultConfig()
	}
	return &Link{
		k:       k,
		rng:     rng.Fork("net-" + name),
		cfg:     cfg,
		up:      sim.NewSharedLink(k, name+"-up", cfg.BandwidthBytesPerSec),
		down:    sim.NewSharedLink(k, name+"-down", cfg.BandwidthBytesPerSec),
		started: k.Now(),
	}
}

// SendToServer ships an input message (client→server).
func (l *Link) SendToServer(size float64, done func()) {
	l.upBytes += size
	l.send(l.up, size, done)
}

// SendToClient ships a frame (server→client).
func (l *Link) SendToClient(size float64, done func()) {
	l.downBytes += size
	l.send(l.down, size, done)
}

func (l *Link) send(link *sim.SharedLink, size float64, done func()) {
	prop := l.rng.Jitter(l.cfg.PropagationDelay, l.cfg.Jitter)
	m := l.free
	if m == nil {
		m = &message{l: l}
		m.fire = m.serialized
	} else {
		l.free = m.next
	}
	m.prop, m.done = prop, done
	link.Transfer(size, m.fire)
}

// serialized runs when the link has carried the last byte: it recycles m
// and delivers the message after its propagation delay.
func (m *message) serialized() {
	l, prop, done := m.l, m.prop, m.done
	m.done = nil
	m.next, l.free = l.free, m
	if done != nil {
		l.k.After(prop, done)
	}
}

// Bytes reports cumulative traffic (inputs up, frames down).
func (l *Link) Bytes() (up, down float64) { return l.upBytes, l.downBytes }

// BandwidthMbps reports average use in megabits/s since accounting start.
func (l *Link) BandwidthMbps() (up, down float64) {
	elapsed := l.k.Now().Sub(l.started).Seconds()
	if elapsed <= 0 {
		return 0, 0
	}
	return l.upBytes * 8 / 1e6 / elapsed, l.downBytes * 8 / 1e6 / elapsed
}

// ResetAccounting restarts the byte counters (post-warmup).
func (l *Link) ResetAccounting() {
	l.upBytes, l.downBytes = 0, 0
	l.started = l.k.Now()
}
