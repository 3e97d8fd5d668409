// Package pcie models the PCIe interconnect between CPU and GPU as two
// directional shared-bandwidth links. Frame copies (the FC stage, the
// paper's surprise bottleneck) ride the GPU→CPU link; texture/vertex
// uploads ride the CPU→GPU link. Per-client byte accounting feeds
// Figure 9.
package pcie

import "pictor/internal/sim"

// Direction selects a PCIe link direction.
type Direction int

const (
	// ToGPU is CPU→GPU (uploads: textures, vertex data).
	ToGPU Direction = iota
	// FromGPU is GPU→CPU (readback: frame copies).
	FromGPU
)

func (d Direction) String() string {
	if d == ToGPU {
		return "to-gpu"
	}
	return "from-gpu"
}

// Bus is the PCIe interconnect: one sim.SharedLink per direction.
// Concurrent DMAs in a direction share its bandwidth equally, and equal
// DMAs that start at the same instant complete in the order they started.
type Bus struct {
	k    *sim.Kernel
	up   *sim.SharedLink // CPU→GPU
	down *sim.SharedLink // GPU→CPU
	// DMASetup is the fixed per-transfer initiation cost (driver ioctl,
	// doorbell, completion interrupt).
	DMASetup sim.Duration
}

// New creates a PCIe bus. capacity is per-direction, in bytes/second
// (PCIe 3.0 x16 ≈ 15.75 GB/s per direction; the paper quotes the 31.5
// GB/s bidirectional aggregate).
func New(k *sim.Kernel, capacityBytesPerSec float64) *Bus {
	return &Bus{
		k:        k,
		up:       sim.NewSharedLink(k, "pcie-up", capacityBytesPerSec),
		down:     sim.NewSharedLink(k, "pcie-down", capacityBytesPerSec),
		DMASetup: 200 * sim.Microsecond,
	}
}

// Client accounts one instance's PCIe traffic.
type Client struct {
	bus       *Bus
	name      string
	started   sim.Time
	upBytes   float64
	downBytes float64
	free      *dma // recycled Transfer records
}

// dma is the record of one Client.Transfer waiting out its set-up,
// recycled through Client.free. fire is the method value d.start, bound
// once when the record is built, so a Transfer allocates nothing once a
// record is free.
type dma struct {
	c    *Client
	link *sim.SharedLink
	size float64
	done func()
	fire func()
	next *dma // next free record
}

// NewClient opens a traffic account on the bus.
func (b *Bus) NewClient(name string) *Client {
	return &Client{bus: b, name: name, started: b.k.Now()}
}

// Transfer moves size bytes in the given direction; done fires when the
// DMA completes. Bandwidth is shared with all concurrent transfers in
// the same direction.
func (c *Client) Transfer(dir Direction, size float64, done func()) {
	if size < 0 {
		size = 0
	}
	link := c.bus.down
	if dir == ToGPU {
		link = c.bus.up
		c.upBytes += size
	} else {
		c.downBytes += size
	}
	d := c.free
	if d == nil {
		d = &dma{c: c}
		d.fire = d.start
	} else {
		c.free = d.next
	}
	d.link, d.size, d.done = link, size, done
	c.bus.k.After(c.bus.DMASetup, d.fire)
}

// start hands the DMA to its link once set-up is over, recycling d
// first.
func (d *dma) start() {
	c, link, size, done := d.c, d.link, d.size, d.done
	d.link, d.done = nil, nil
	d.next, c.free = c.free, d
	link.Transfer(size, done)
}

// Bytes reports cumulative traffic in each direction.
func (c *Client) Bytes() (toGPU, fromGPU float64) { return c.upBytes, c.downBytes }

// BandwidthMBs reports average bandwidth use (MB/s) in each direction
// since accounting started.
func (c *Client) BandwidthMBs() (toGPU, fromGPU float64) {
	elapsed := c.bus.k.Now().Sub(c.started).Seconds()
	if elapsed <= 0 {
		return 0, 0
	}
	return c.upBytes / 1e6 / elapsed, c.downBytes / 1e6 / elapsed
}

// ResetAccounting restarts the byte counters (post-warmup).
func (c *Client) ResetAccounting() {
	c.upBytes, c.downBytes = 0, 0
	c.started = c.bus.k.Now()
}
