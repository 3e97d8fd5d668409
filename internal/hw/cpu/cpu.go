// Package cpu models the server's multi-core CPU: work execution with
// time-sharing dilation when the machine is oversubscribed, per-process
// utilization accounting (the top-style percentages of Figure 8), and a
// synthetic top-down PMU (Figure 14).
package cpu

import (
	"pictor/internal/hw/mem"
	"pictor/internal/sim"
)

// CPU is the machine's processor complex.
type CPU struct {
	k     *sim.Kernel
	cores float64
	rng   *sim.RNG

	running    float64 // currently-executing modelled work, in threads
	background float64 // steady background demand, in cores
}

// New creates a CPU with the given core count.
func New(k *sim.Kernel, cores int, rng *sim.RNG) *CPU {
	if cores < 1 {
		panic("cpu: need at least one core")
	}
	return &CPU{k: k, cores: float64(cores), rng: rng.Fork("cpu")}
}

// Cores reports the configured core count.
func (c *CPU) Cores() float64 { return c.cores }

// Dilation reports the current time-sharing slowdown factor: 1 while the
// machine has spare cores, demand/cores when oversubscribed.
func (c *CPU) Dilation() float64 {
	load := c.running + c.background + 1 // +1: the work asking
	if load <= c.cores {
		return 1
	}
	return load / c.cores
}

// Proc is a process (or thread group) running on the CPU: one 3D app
// instance, one VNC server, etc. It owns utilization and PMU accounting.
type Proc struct {
	cpu  *CPU
	name string
	mem  *mem.Client

	// backgroundCores is steady demand from threads we don't model as
	// discrete events (engine workers, audio, physics).
	backgroundCores float64
	bgActive        bool
	bgSince         sim.Time

	cpuTime sim.Duration // on-CPU time consumed by modelled work
	bgTime  sim.Duration // on-CPU time consumed by background demand
	started sim.Time
	pmu     PMU
	free    *run // recycled Run records
}

// run is the record of one Proc.Run in flight, recycled through
// Proc.free. fire is the method value r.finish, bound once when the
// record is built, so a Run allocates nothing once a record is free.
type run struct {
	p     *Proc
	onCPU sim.Duration
	cpi   float64
	done  func()
	fire  func()
	next  *run // next free record
}

// PMU holds synthetic top-down cycle accounting (Figure 14).
type PMU struct {
	Retiring    float64
	FrontEnd    float64
	BadSpec     float64
	BackEnd     float64
	Instrs      float64
	TotalCycles float64
}

// IPC reports instructions per cycle.
func (p PMU) IPC() float64 {
	if p.TotalCycles == 0 {
		return 0
	}
	return p.Instrs / p.TotalCycles
}

// Fractions reports the four top-down category shares.
func (p PMU) Fractions() (retiring, frontend, badspec, backend float64) {
	if p.TotalCycles == 0 {
		return 0, 0, 0, 0
	}
	t := p.TotalCycles
	return p.Retiring / t, p.FrontEnd / t, p.BadSpec / t, p.BackEnd / t
}

// NewProc creates a process on the CPU. memClient may be nil for
// processes whose memory behaviour we don't track (e.g. client
// machines).
func (c *CPU) NewProc(name string, memClient *mem.Client, backgroundCores float64) *Proc {
	return &Proc{
		cpu:             c,
		name:            name,
		mem:             memClient,
		backgroundCores: backgroundCores,
		started:         c.k.Now(),
	}
}

// Start activates the process's background demand.
func (p *Proc) Start() {
	if p.bgActive {
		return
	}
	p.bgActive = true
	p.bgSince = p.cpu.k.Now()
	p.cpu.background += p.backgroundCores
	if p.mem != nil {
		p.mem.SetActive(true)
	}
}

// Stop deactivates the process's background demand.
func (p *Proc) Stop() {
	if !p.bgActive {
		return
	}
	p.flushBackground()
	p.bgActive = false
	p.cpu.background -= p.backgroundCores
	if p.mem != nil {
		p.mem.SetActive(false)
	}
}

func (p *Proc) flushBackground() {
	if !p.bgActive {
		return
	}
	now := p.cpu.k.Now()
	elapsed := now.Sub(p.bgSince)
	p.bgTime += sim.Duration(float64(elapsed) * p.backgroundCores)
	p.bgSince = now
}

// Run executes nominal CPU work for this process, then calls done. The
// wall-clock (simulated) duration is nominal × scheduler dilation ×
// memory-contention CPI factor; the on-CPU time excludes scheduler
// waiting but includes memory stalls, matching what top and PMUs see.
func (p *Proc) Run(nominal sim.Duration, done func()) {
	if nominal < 0 {
		nominal = 0
	}
	cpi := 1.0
	if p.mem != nil {
		cpi = p.mem.CPIFactor()
	}
	onCPU := sim.Duration(float64(nominal) * cpi)
	wall := sim.Duration(float64(onCPU) * p.cpu.Dilation())
	r := p.free
	if r == nil {
		r = &run{p: p}
		r.fire = r.finish
	} else {
		p.free = r.next
	}
	r.onCPU, r.cpi, r.done = onCPU, cpi, done
	p.cpu.running++
	p.cpu.k.After(wall, r.fire)
}

// finish accounts a completed Run and recycles r before calling done,
// which may start the next Run on the same record.
func (r *run) finish() {
	p, onCPU, cpi, done := r.p, r.onCPU, r.cpi, r.done
	r.done = nil
	r.next, p.free = p.free, r
	p.cpu.running--
	p.cpuTime += onCPU
	ms := float64(onCPU) / float64(sim.Millisecond)
	if p.mem != nil {
		p.mem.Account(ms)
	}
	p.accountCycles(ms, cpi)
	if done != nil {
		done()
	}
}

// accountCycles synthesizes top-down PMU counters for ms milliseconds of
// on-CPU time under CPI inflation cpi.
func (p *Proc) accountCycles(ms, cpi float64) {
	const cyclesPerMs = 3.6e6 // 3.6 GHz
	cycles := ms * cyclesPerMs
	missRate := 0.75
	if p.mem != nil {
		missRate = p.mem.MissRate()
	}
	// Backend stalls dominate for 3D apps (memory-bound, §5.1.3) and
	// grow with both the miss rate and contention-driven CPI inflation.
	backend := 0.30 + 0.42*missRate + 0.35*(cpi-1)
	if backend > 0.85 {
		backend = 0.85
	}
	frontend := 0.08
	badspec := 0.05
	retiring := 1 - backend - frontend - badspec
	if retiring < 0.05 {
		retiring = 0.05
	}
	p.pmu.BackEnd += cycles * backend
	p.pmu.FrontEnd += cycles * frontend
	p.pmu.BadSpec += cycles * badspec
	p.pmu.Retiring += cycles * retiring
	p.pmu.TotalCycles += cycles
	// Roughly 1.6 instructions retire per retiring-cycle on a wide core.
	p.pmu.Instrs += cycles * retiring * 1.6
}

// PMU reports the process's accumulated top-down counters.
func (p *Proc) PMU() PMU {
	p.flushBackground()
	// Background threads behave like the modelled work: account them
	// lazily so long-idle PMU reads still reflect background cycles.
	return p.pmu
}

// CPUTime reports total on-CPU time (modelled + background).
func (p *Proc) CPUTime() sim.Duration {
	p.flushBackground()
	return p.cpuTime + p.bgTime
}

// Utilization reports top-style CPU percentage (100 = one core busy)
// since the process was created.
func (p *Proc) Utilization() float64 {
	p.flushBackground()
	elapsed := p.cpu.k.Now().Sub(p.started)
	if elapsed <= 0 {
		return 0
	}
	return float64(p.cpuTime+p.bgTime) / float64(elapsed) * 100
}

// ResetAccounting clears utilization and PMU state, restarting the
// measurement window at the current time (used after warmup).
func (p *Proc) ResetAccounting() {
	p.flushBackground()
	p.cpuTime, p.bgTime = 0, 0
	p.started = p.cpu.k.Now()
	p.pmu = PMU{}
}
