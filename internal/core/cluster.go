// Package core assembles the full cloud 3D rendering system — server
// hardware, proxies, applications, network, clients and drivers — and
// runs the paper's experiments on it. It is the engine behind the
// public pictor API.
package core

import (
	"fmt"

	"pictor/internal/agent"
	"pictor/internal/app"
	"pictor/internal/container"
	"pictor/internal/gl"
	"pictor/internal/hw/cpu"
	"pictor/internal/hw/gpu"
	"pictor/internal/hw/mem"
	"pictor/internal/hw/pcie"
	"pictor/internal/hw/power"
	"pictor/internal/netsim"
	"pictor/internal/sim"
	"pictor/internal/trace"
	"pictor/internal/vgl"
	"pictor/internal/vnc"
	"pictor/internal/x11"
)

// DriverFactory builds a client driver once the instance's cluster and
// RNG exist. The cluster gives factories machine scope — intelligent
// clients use it to share one BatchModels per machine (c.BatcherFor)
// so their per-frame CNN passes run as one batch; c.K is the kernel.
// A nil factory means an undriven instance (no inputs).
type DriverFactory func(c *Cluster, rng *sim.RNG, prof app.Profile) vnc.Driver

// Options configures a cluster (one server machine + its clients).
type Options struct {
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// Cores is the server CPU core count (paper: 8-core i7-7820X).
	Cores int
	// PCIeBytesPerSec is per-direction PCIe bandwidth.
	PCIeBytesPerSec float64
	// Network is the per-instance client link.
	Network netsim.Config
	// Power is the wall-power model.
	Power power.Model
}

// InstanceConfig configures one application instance on the cluster.
type InstanceConfig struct {
	Profile app.Profile
	Driver  DriverFactory
	// Tracing enables the performance analysis framework (default on
	// via NewInstanceConfig; the overhead experiment turns it off).
	Tracing bool
	// Interposer selects baseline vs optimized frame copy.
	Interposer vgl.Options
	// Containerized wraps the instance in a Docker-like container.
	Containerized bool
	// Container carries the overhead model when Containerized.
	Container container.Overheads
	// Mode selects the pipeline discipline (normal vs slow-motion).
	Mode app.Mode
}

// NewInstanceConfig returns the standard setup: traced, baseline
// interposer, bare metal, normal pipeline.
func NewInstanceConfig(prof app.Profile, driver DriverFactory) InstanceConfig {
	return InstanceConfig{
		Profile:    prof,
		Driver:     driver,
		Tracing:    true,
		Interposer: vgl.DefaultOptions(),
		Mode:       app.ModeNormal,
	}
}

// Instance is one running benchmark with its proxies and client.
type Instance struct {
	Name    string
	Profile app.Profile
	Tracer  *trace.Tracer
	App     *app.App
	Server  *vnc.ServerProxy
	Client  *vnc.ClientProxy
	Driver  vnc.Driver

	appProc *cpu.Proc
	vncProc *cpu.Proc
	memApp  *mem.Client
	memVNC  *mem.Client
	gpuCtx  *gpu.Context
	pcie    *pcie.Client
	link    *netsim.Link
	ip      *vgl.Interposer
}

// Cluster is one server machine plus its per-instance clients.
type Cluster struct {
	K     *sim.Kernel
	CPU   *cpu.CPU
	Mem   *mem.System
	GPU   *gpu.GPU
	PCIe  *pcie.Bus
	Power power.Model

	Instances []*Instance

	opts     Options
	rng      *sim.RNG
	batchers map[*agent.Models]*agent.BatchModels
}

// BatcherFor returns the cluster's shared BatchModels for one trained
// model set, creating it on first use (the weights are cloned once per
// cluster, not once per client). All intelligent clients on this
// machine built from the same models join the same batch, so their
// per-frame CNN passes coalesce into one tick-synchronized inference.
func (c *Cluster) BatcherFor(models *agent.Models) *agent.BatchModels {
	if c.batchers == nil {
		c.batchers = make(map[*agent.Models]*agent.BatchModels)
	}
	bm, ok := c.batchers[models]
	if !ok {
		bm = agent.NewBatchModels(models)
		c.batchers[models] = bm
	}
	return bm
}

// NewCluster builds an empty server.
func NewCluster(opts Options) *Cluster {
	if opts.Cores <= 0 {
		opts.Cores = 8
	}
	if opts.PCIeBytesPerSec <= 0 {
		opts.PCIeBytesPerSec = 15.75e9
	}
	if opts.Network.BandwidthBytesPerSec <= 0 {
		opts.Network = netsim.DefaultConfig()
	}
	if opts.Power.IdleWatts <= 0 {
		opts.Power = power.Default()
	}
	k := sim.NewKernel()
	rng := sim.NewRNG(opts.Seed)
	return &Cluster{
		K:     k,
		CPU:   cpu.New(k, opts.Cores, rng),
		Mem:   mem.NewSystem(),
		GPU:   gpu.New(k, rng),
		PCIe:  pcie.New(k, opts.PCIeBytesPerSec),
		Power: opts.Power,
		opts:  opts,
		rng:   rng,
	}
}

// AddInstance assembles one benchmark instance on the server.
func (c *Cluster) AddInstance(cfg InstanceConfig) *Instance {
	idx := len(c.Instances)
	name := fmt.Sprintf("%s#%d", cfg.Profile.Name, idx)
	rng := c.rng.Fork(name)
	prof := cfg.Profile

	gpuProf := prof.GPU
	memProf := prof.Mem
	vncMemProf := prof.VNCMem
	costs := vnc.DefaultCosts()
	if cfg.Containerized {
		tax := cfg.Container.SampleIPCTax(rng)
		prof.IPCTax += tax
		costs.IPCTax += tax
		memProf.Intensity *= cfg.Container.MemIsolation
		vncMemProf.Intensity *= cfg.Container.MemIsolation
	}

	tracer := trace.New(c.K)
	tracer.SetEnabled(cfg.Tracing)

	memApp := c.Mem.Register(name, memProf)
	memVNC := c.Mem.Register(name+"-vnc", vncMemProf)
	appProc := c.CPU.NewProc(name, memApp, prof.AppBackgroundCores)
	vncProc := c.CPU.NewProc(name+"-vnc", memVNC, prof.VNCBackgroundCores)

	gctx := c.GPU.NewContext(name, gpuProf)
	if cfg.Containerized {
		gctx.SetVirtTax(cfg.Container.GPUVirtTax)
	}
	pcl := c.PCIe.NewClient(name)
	glctx := gl.NewContext(c.K, gctx, pcl)
	display := x11.NewDisplay(c.K, rng, prof.Width, prof.Height)
	ip := vgl.New(c.K, appProc, display, tracer, cfg.Interposer)
	link := netsim.NewLink(c.K, name, c.opts.Network, rng)

	server := vnc.NewServerProxy(c.K, vncProc, link, display, tracer, prof.Codec, costs, rng)
	application := app.New(app.Config{
		Kernel:     c.K,
		RNG:        rng,
		Profile:    prof,
		Proc:       appProc,
		GL:         glctx,
		Interposer: ip,
		Display:    display,
		Tracer:     tracer,
		Mode:       cfg.Mode,
		SendFrame:  server.HandleFrame,
	})
	var driver vnc.Driver
	if cfg.Driver != nil {
		driver = cfg.Driver(c, rng, prof)
	}
	client := vnc.NewClientProxy(c.K, link, tracer, server, driver)

	inst := &Instance{
		Name:    name,
		Profile: prof,
		Tracer:  tracer,
		App:     application,
		Server:  server,
		Client:  client,
		Driver:  driver,
		appProc: appProc,
		vncProc: vncProc,
		memApp:  memApp,
		memVNC:  memVNC,
		gpuCtx:  gctx,
		pcie:    pcl,
		link:    link,
		ip:      ip,
	}
	c.Instances = append(c.Instances, inst)
	return inst
}

// start activates an instance's processes and contexts.
func (inst *Instance) start() {
	inst.vncProc.Start()
	inst.memVNC.SetActive(true)
	inst.gpuCtx.SetActive(true)
	inst.memApp.SetActive(true)
	inst.App.Start() // starts appProc
}

// stop deactivates the instance.
func (inst *Instance) stop() {
	inst.App.Stop()
	inst.vncProc.Stop()
	inst.memVNC.SetActive(false)
	inst.memApp.SetActive(false)
	inst.gpuCtx.SetActive(false)
}

// resetAccounting clears all measurements (end of warmup).
func (inst *Instance) resetAccounting() {
	inst.Tracer.Reset()
	inst.appProc.ResetAccounting()
	inst.vncProc.ResetAccounting()
	inst.gpuCtx.ResetAccounting()
	inst.pcie.ResetAccounting()
	inst.link.ResetAccounting()
}

// Run executes the cluster: warmup (discarded), then the measurement
// window. Instances start together and stop at the end.
func (c *Cluster) Run(warmup, measure sim.Duration) {
	for _, inst := range c.Instances {
		inst.start()
	}
	c.K.RunUntil(c.K.Now().Add(warmup))
	// Pre-size the tracer's samples from the configured window: stage
	// samples collect at most ~one observation per frame, so a frame
	// rate bound × window length covers steady state without re-growth.
	const maxExpectedFPS = 64
	hint := int(sim.Time(measure).Seconds() * maxExpectedFPS)
	for _, inst := range c.Instances {
		inst.resetAccounting()
		inst.Tracer.SizeHint(hint)
	}
	c.K.RunUntil(c.K.Now().Add(measure))
	for _, inst := range c.Instances {
		inst.stop()
	}
}

// TotalPowerWatts reports modelled wall power over the measurement
// window.
func (c *Cluster) TotalPowerWatts() float64 {
	var cpuUtil, gpuUtil float64
	for _, inst := range c.Instances {
		cpuUtil += inst.appProc.Utilization() + inst.vncProc.Utilization()
		gpuUtil += inst.gpuCtx.Utilization()
	}
	// Accounting can exceed physical capacity under heavy memory-stall
	// inflation; the wall meter cannot.
	if maxUtil := c.CPU.Cores() * 100; cpuUtil > maxUtil {
		cpuUtil = maxUtil
	}
	return c.Power.TotalWatts(cpuUtil, gpuUtil, len(c.Instances))
}
