package core

import (
	"testing"

	"pictor/internal/app"
	"pictor/internal/sim"
	"pictor/internal/trace"
	"pictor/internal/vgl"
)

// runSingle runs one human-driven instance for a short window.
func runSingle(t *testing.T, prof app.Profile, seconds float64) InstanceResult {
	t.Helper()
	cl := NewCluster(Options{Seed: 7})
	cl.AddInstance(NewInstanceConfig(prof, HumanDriver()))
	cl.Run(sim.DurationOfSeconds(2), sim.DurationOfSeconds(seconds))
	return cl.Instances[0].Result()
}

func TestSingleInstancePipelineProducesFrames(t *testing.T) {
	r := runSingle(t, app.STK(), 10)
	if r.ServerFPS < 15 || r.ServerFPS > 120 {
		t.Fatalf("server FPS = %v, want a plausible rate", r.ServerFPS)
	}
	if r.ClientFPS < 10 || r.ClientFPS > r.ServerFPS+1 {
		t.Fatalf("client FPS = %v (server %v): client cannot beat server", r.ClientFPS, r.ServerFPS)
	}
}

func TestRoundTripsComplete(t *testing.T) {
	cl := NewCluster(Options{Seed: 8})
	cl.AddInstance(NewInstanceConfig(app.RE(), HumanDriver()))
	cl.Run(sim.DurationOfSeconds(2), sim.DurationOfSeconds(10))
	tr := cl.Instances[0].Tracer
	if tr.CompletedRTTCount() < 5 {
		t.Fatalf("only %d completed round trips in 10s of FPS play", tr.CompletedRTTCount())
	}
	rtt := tr.RTTs().Mean()
	if rtt < 20 || rtt > 400 {
		t.Fatalf("mean RTT = %vms, want a plausible interactive latency", rtt)
	}
}

func TestStageBreakdownPresent(t *testing.T) {
	r := runSingle(t, app.D2(), 10)
	for _, s := range []trace.Stage{trace.StageCS, trace.StageSP, trace.StagePS,
		trace.StageAL, trace.StageRD, trace.StageFC, trace.StageAS,
		trace.StageCP, trace.StageSS} {
		if r.Stages[s].N == 0 {
			t.Fatalf("stage %s never measured", s)
		}
		if r.Stages[s].Mean <= 0 {
			t.Fatalf("stage %s mean = %v, want > 0", s, r.Stages[s].Mean)
		}
	}
	// FC must be a major component (the paper's surprise bottleneck).
	if r.Stages[trace.StageFC].Mean < r.Stages[trace.StageAS].Mean {
		t.Fatalf("FC (%vms) should dwarf AS (%vms)",
			r.Stages[trace.StageFC].Mean, r.Stages[trace.StageAS].Mean)
	}
}

func TestUtilizationRanges(t *testing.T) {
	r := runSingle(t, app.STK(), 10)
	if r.AppCPUUtil < 30 || r.AppCPUUtil > 400 {
		t.Fatalf("app CPU util = %v%%, implausible", r.AppCPUUtil)
	}
	if r.VNCCPUUtil < 30 || r.VNCCPUUtil > 400 {
		t.Fatalf("VNC CPU util = %v%%, implausible", r.VNCCPUUtil)
	}
	if r.GPUUtil <= 0 || r.GPUUtil > 100 {
		t.Fatalf("GPU util = %v%%, implausible", r.GPUUtil)
	}
	if r.L3MissRate < 0.5 || r.L3MissRate > 1 {
		t.Fatalf("L3 miss rate = %v, 3D apps should be > 0.5", r.L3MissRate)
	}
}

func TestMoreInstancesDegradePerformance(t *testing.T) {
	fpsAt := func(n int) float64 {
		cl := NewCluster(Options{Seed: 9})
		for i := 0; i < n; i++ {
			cl.AddInstance(NewInstanceConfig(app.STK(), HumanDriver()))
		}
		cl.Run(sim.DurationOfSeconds(2), sim.DurationOfSeconds(8))
		return cl.Instances[0].Result().ServerFPS
	}
	one, four := fpsAt(1), fpsAt(4)
	if four >= one {
		t.Fatalf("server FPS did not degrade under 4-way co-location: %v -> %v", one, four)
	}
}

func TestContentionRaisesALAndMisses(t *testing.T) {
	run := func(n int) InstanceResult {
		cl := NewCluster(Options{Seed: 10})
		for i := 0; i < n; i++ {
			cl.AddInstance(NewInstanceConfig(app.D2(), HumanDriver()))
		}
		cl.Run(sim.DurationOfSeconds(2), sim.DurationOfSeconds(8))
		return cl.Instances[0].Result()
	}
	one, four := run(1), run(4)
	if four.Stages[trace.StageAL].Mean <= one.Stages[trace.StageAL].Mean {
		t.Fatalf("AL did not grow under contention: %v -> %v",
			one.Stages[trace.StageAL].Mean, four.Stages[trace.StageAL].Mean)
	}
	if four.L3MissRate <= one.L3MissRate {
		t.Fatalf("L3 miss did not grow: %v -> %v", one.L3MissRate, four.L3MissRate)
	}
	if four.GPUL2Miss <= one.GPUL2Miss {
		t.Fatalf("GPU L2 miss did not grow: %v -> %v", one.GPUL2Miss, four.GPUL2Miss)
	}
	if diff := four.GPUTexMiss - one.GPUTexMiss; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("private texture miss changed under contention: %v -> %v",
			one.GPUTexMiss, four.GPUTexMiss)
	}
}

func TestOptimizationsRaiseServerFPS(t *testing.T) {
	run := func(opt bool) InstanceResult {
		cl := NewCluster(Options{Seed: 11})
		cfg := NewInstanceConfig(app.STK(), HumanDriver())
		if opt {
			cfg.Interposer = vgl.Optimized()
		}
		cl.AddInstance(cfg)
		cl.Run(sim.DurationOfSeconds(2), sim.DurationOfSeconds(8))
		return cl.Instances[0].Result()
	}
	base, opt := run(false), run(true)
	gain := (opt.ServerFPS - base.ServerFPS) / base.ServerFPS * 100
	if gain < 15 {
		t.Fatalf("optimizations gained only %.1f%% server FPS (%.1f → %.1f)",
			gain, base.ServerFPS, opt.ServerFPS)
	}
	if opt.Stages[trace.StageFC].Mean >= base.Stages[trace.StageFC].Mean {
		t.Fatalf("FC did not shrink: %v -> %v",
			base.Stages[trace.StageFC].Mean, opt.Stages[trace.StageFC].Mean)
	}
}

func TestMemoizationCollapsesAttrCalls(t *testing.T) {
	cl := NewCluster(Options{Seed: 12})
	cfg := NewInstanceConfig(app.IM(), HumanDriver())
	cfg.Interposer = vgl.Optimized()
	cl.AddInstance(cfg)
	cl.Run(sim.DurationOfSeconds(1), sim.DurationOfSeconds(5))
	r := cl.Instances[0].Result()
	if r.Copies < 50 {
		t.Fatalf("too few copies to evaluate: %d", r.Copies)
	}
	if r.AttrCalls > 2 {
		t.Fatalf("memoized interposer made %d XGetWindowAttributes calls for %d copies",
			r.AttrCalls, r.Copies)
	}
}

func TestTagsSurviveIPCBoundary(t *testing.T) {
	cl := NewCluster(Options{Seed: 13})
	cl.AddInstance(NewInstanceConfig(app.IM(), HumanDriver()))
	cl.Run(sim.DurationOfSeconds(2), sim.DurationOfSeconds(8))
	// If tags survive the tag header hook6 writes and hook8 reads,
	// hook10 matches them and RTTs complete.
	if cl.Instances[0].Tracer.CompletedRTTCount() == 0 {
		t.Fatal("no round trips completed — tag embedding path broken")
	}
}

// TestNoPhantomTagRecords: hook8 must not read an untagged frame's
// tag header as tags. A phantom tag can equal a real tag not yet
// issued and take its first CP and SS observations. Every record must
// name a tag the client issued.
func TestNoPhantomTagRecords(t *testing.T) {
	cl := NewCluster(Options{Seed: 7})
	for _, prof := range app.PaperSuite() {
		cl.AddInstance(NewInstanceConfig(prof, HumanDriver()))
	}
	cl.Run(sim.DurationOfSeconds(1), sim.DurationOfSeconds(5))
	for _, inst := range cl.Instances {
		next := inst.Tracer.NextTag() // one past the last tag issued
		for _, rec := range inst.Tracer.Records() {
			if rec.Tag >= next {
				t.Fatalf("%s: record for tag %#x, never issued (last issued %d)", inst.Profile.Name, rec.Tag, next-1)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		cl := NewCluster(Options{Seed: 42})
		cl.AddInstance(NewInstanceConfig(app.RE(), HumanDriver()))
		cl.Run(sim.DurationOfSeconds(1), sim.DurationOfSeconds(5))
		r := cl.Instances[0].Result()
		return r.ServerFPS, r.RTT.Mean
	}
	fps1, rtt1 := run()
	fps2, rtt2 := run()
	if fps1 != fps2 || rtt1 != rtt2 {
		t.Fatalf("same-seed runs diverged: (%v, %v) vs (%v, %v)", fps1, rtt1, fps2, rtt2)
	}
}

func TestPowerScalesSubLinearly(t *testing.T) {
	runP := func(n int) float64 {
		cl := NewCluster(Options{Seed: 14})
		for i := 0; i < n; i++ {
			cl.AddInstance(NewInstanceConfig(app.ITP(), HumanDriver()))
		}
		cl.Run(sim.DurationOfSeconds(1), sim.DurationOfSeconds(6))
		return cl.TotalPowerWatts()
	}
	p1, p4 := runP(1), runP(4)
	if p4 <= p1 {
		t.Fatalf("power did not grow with instances: %v -> %v", p1, p4)
	}
	if p4 >= 3*p1 {
		t.Fatalf("power grew almost linearly (%vW -> %vW): consolidation economics lost", p1, p4)
	}
}

func TestContainerizedInstanceRuns(t *testing.T) {
	cl := NewCluster(Options{Seed: 15})
	cfg := NewInstanceConfig(app.D2(), HumanDriver())
	cfg.Containerized = true
	cfg.Container = dockerOverheads()
	cl.AddInstance(cfg)
	cl.Run(sim.DurationOfSeconds(1), sim.DurationOfSeconds(6))
	r := cl.Instances[0].Result()
	if r.ServerFPS <= 0 || r.RTT.N == 0 {
		t.Fatal("containerized instance produced no measurements")
	}
}
