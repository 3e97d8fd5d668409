// Package mem models the server's shared memory hierarchy: the last-level
// (L3) cache and DRAM. Its job in Pictor is to turn co-location into the
// contention signals the paper measures — L3 miss rates that climb as more
// 3D instances share the machine (Figure 15) and the memory component of
// CPU backend stalls (Figure 14).
//
// Cloud 3D workloads are unusual here: even a single instance shows >70% L3
// miss rates because CPU→GPU communication uses uncached/write-combining
// memory (paper §5.1.3), so the model's per-client base miss rates start
// high and contention pushes them toward saturation.
package mem

import "math"

// Profile describes a client's memory behaviour.
type Profile struct {
	// BaseMissRate is the L3 miss ratio (misses/accesses) when running
	// alone. 3D apps are typically > 0.70.
	BaseMissRate float64
	// Intensity in [0,1] scales how much traffic the client pushes into
	// the shared cache/DRAM, i.e. how much it hurts (and is hurt by)
	// co-runners.
	Intensity float64
	// Sensitivity in [0,1] scales how strongly the client's CPI degrades
	// per unit of contention it experiences.
	Sensitivity float64
	// AccessesPerMs is the synthetic L3 access rate used for PMU
	// counter reporting.
	AccessesPerMs float64
	// FootprintMB is resident CPU memory, reported for Figure 8's
	// discussion (600 MB – 4 GB across the suite).
	FootprintMB float64
}

// System is the machine-wide shared memory hierarchy.
type System struct {
	// MissSlope converts aggregate co-runner intensity into added miss
	// rate. Calibrated so four instances land in the high-80s/90s
	// percent region of Figure 15.
	MissSlope float64
	// PenaltyScale converts (missRate × sensitivity × contention) into a
	// CPI multiplier for CPU work.
	PenaltyScale float64

	clients []*Client
}

// NewSystem returns a memory system with the default calibration.
func NewSystem() *System {
	return &System{MissSlope: 0.055, PenaltyScale: 1.05}
}

// Client is one process's view of the memory system.
type Client struct {
	sys    *System
	name   string
	prof   Profile
	active bool
	hits   float64
	misses float64
}

// Register adds a client. Clients start inactive; activate them when
// their instance starts so idle instances don't contend.
func (s *System) Register(name string, p Profile) *Client {
	c := &Client{sys: s, name: name, prof: p}
	s.clients = append(s.clients, c)
	return c
}

// SetActive marks the client as running (contending) or not.
func (c *Client) SetActive(a bool) { c.active = a }

// contentionIndex is the total intensity of *other* active clients —
// the pressure this client experiences.
func (c *Client) contentionIndex() float64 {
	var idx float64
	for _, o := range c.sys.clients {
		if o != c && o.active {
			idx += o.prof.Intensity
		}
	}
	return idx
}

// MissRate reports the client's current L3 miss ratio given present
// co-location. It grows with co-runner intensity and saturates below 1.
func (c *Client) MissRate() float64 {
	idx := c.contentionIndex()
	mr := c.prof.BaseMissRate + c.sys.MissSlope*idx*(0.5+c.prof.Sensitivity)
	return math.Min(mr, 0.985)
}

// CPIFactor reports the multiplicative CPU-time penalty for the client's
// compute under current contention. Running alone it is exactly 1 (the
// baseline profiles already include the solo memory behaviour).
func (c *Client) CPIFactor() float64 {
	idx := c.contentionIndex()
	if idx <= 0 {
		return 1
	}
	extraMiss := c.MissRate() - c.prof.BaseMissRate
	return 1 + c.sys.PenaltyScale*extraMiss*(0.5+1.5*c.prof.Sensitivity)*math.Sqrt(idx)
}

// Account records PMU-visible cache traffic for work that consumed
// cpuMs milliseconds of CPU time.
func (c *Client) Account(cpuMs float64) {
	accesses := c.prof.AccessesPerMs * cpuMs
	mr := c.MissRate()
	c.misses += accesses * mr
	c.hits += accesses * (1 - mr)
}

// Counters reports accumulated L3 accesses and misses.
func (c *Client) Counters() (accesses, misses float64) {
	return c.hits + c.misses, c.misses
}

// ObservedMissRate reports misses/accesses over everything accounted so
// far (the number Figure 15 plots).
func (c *Client) ObservedMissRate() float64 {
	a, m := c.Counters()
	if a == 0 {
		return c.MissRate()
	}
	return m / a
}

// ActiveClients reports how many clients are currently active.
func (s *System) ActiveClients() int {
	n := 0
	for _, c := range s.clients {
		if c.active {
			n++
		}
	}
	return n
}
