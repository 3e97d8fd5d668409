package core

import (
	"pictor/internal/stats"
	"pictor/internal/trace"
)

// InstanceResult is the measurement bundle for one instance after a
// run — everything the paper's figures draw from.
type InstanceResult struct {
	Name      string
	Benchmark string

	ServerFPS float64
	ClientFPS float64
	Dropped   int64

	RTT    stats.Summary
	Stages map[trace.Stage]stats.Summary

	AppCPUUtil float64 // top-style %, 100 = one core
	VNCCPUUtil float64
	GPUUtil    float64

	L3MissRate  float64
	GPUL2Miss   float64 // -1 when PMU-unreadable (0 A.D.)
	GPUTexMiss  float64
	CPUTopDown  TopDown
	FootprintMB float64
	GPUMemoryMB float64

	NetUpMbps   float64
	NetDownMbps float64
	PCIeToGPU   float64 // MB/s
	PCIeFromGPU float64 // MB/s

	AttrCalls int64
	Copies    int64
}

// TopDown is the Figure-14 cycle breakdown.
type TopDown struct {
	Retiring float64
	FrontEnd float64
	BadSpec  float64
	BackEnd  float64
	IPC      float64
}

// Result snapshots an instance's measurements.
func (inst *Instance) Result() InstanceResult {
	r := InstanceResult{
		Name:      inst.Name,
		Benchmark: inst.Profile.Name,

		ServerFPS: inst.Tracer.ServerFPS(),
		ClientFPS: inst.Tracer.ClientFPS(),
		Dropped:   inst.Tracer.DroppedFrames(),

		RTT:    inst.Tracer.RTTs().Summarize(),
		Stages: make(map[trace.Stage]stats.Summary),

		AppCPUUtil: inst.appProc.Utilization(),
		VNCCPUUtil: inst.vncProc.Utilization(),
		GPUUtil:    inst.gpuCtx.Utilization(),

		L3MissRate:  inst.memApp.ObservedMissRate(),
		GPUL2Miss:   inst.gpuCtx.ObservedL2MissRate(),
		GPUTexMiss:  inst.gpuCtx.ObservedTexMissRate(),
		FootprintMB: inst.Profile.Mem.FootprintMB,
		GPUMemoryMB: inst.Profile.GPU.MemoryMB,

		AttrCalls: inst.ip.AttrCalls(),
		Copies:    inst.ip.Copies(),
	}
	for s := range trace.NumStages {
		r.Stages[s] = inst.Tracer.StageSample(s).Summarize()
	}
	pmu := inst.appProc.PMU()
	ret, fe, bad, be := pmu.Fractions()
	r.CPUTopDown = TopDown{Retiring: ret, FrontEnd: fe, BadSpec: bad, BackEnd: be, IPC: pmu.IPC()}
	r.NetUpMbps, r.NetDownMbps = inst.link.BandwidthMbps()
	r.PCIeToGPU, r.PCIeFromGPU = inst.pcie.BandwidthMBs()
	return r
}

// ServerTimeMs reports the mean time the server spends on an input —
// the paper's Figure 11 "server" component: everything in the RTT that
// is not network time. This is measured (RTT − CS − SS), so it includes
// the pipeline's queueing and alignment waits that per-stage sums miss
// (the very gap that breaks the Chen et al. methodology).
func (r InstanceResult) ServerTimeMs() float64 {
	t := r.RTT.Mean - r.Stages[trace.StageCS].Mean - r.Stages[trace.StageSS].Mean
	if t < 0 {
		t = 0
	}
	return t
}

// AppTimeMs reports the application component of the server time
// (Figure 12): server time minus the proxy stages PS, AS and CP.
func (r InstanceResult) AppTimeMs() float64 {
	t := r.ServerTimeMs() - r.Stages[trace.StagePS].Mean -
		r.Stages[trace.StageAS].Mean - r.Stages[trace.StageCP].Mean
	if t < 0 {
		t = 0
	}
	return t
}

// NetworkTimeMs reports the mean network component of RTT (CS + SS).
func (r InstanceResult) NetworkTimeMs() float64 {
	return r.Stages[trace.StageCS].Mean + r.Stages[trace.StageSS].Mean
}
