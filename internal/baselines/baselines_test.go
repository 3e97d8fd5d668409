package baselines

import (
	"testing"

	"pictor/internal/agent"
	"pictor/internal/app"
	"pictor/internal/scene"
	"pictor/internal/sim"
	"pictor/internal/stats"
	"pictor/internal/trace"
)

// replayRecording builds a small recording with a few acted frames,
// and returns the rendered frames it was recorded from.
func replayRecording(prof app.Profile, frames int, seed int64) (*agent.Recording, []*scene.Frame) {
	rng := sim.NewRNG(seed)
	sc := scene.New(prof.Dynamics, rng)
	rec := &agent.Recording{Benchmark: prof.Name}
	var rendered []*scene.Frame
	for i := 0; i < frames; i++ {
		act := scene.ActNone
		if i%5 == 4 {
			act = agent.PolicyAction(prof, sc.Cells(), rng)
		}
		sc.Step(act)
		f := sc.Render(int64(i), prof.Width, prof.Height)
		rec.Samples = append(rec.Samples, agent.Sample{Pixels: f.Pixels(), Cells: f.Cells, Action: act})
		rendered = append(rendered, f)
	}
	return rec, rendered
}

func TestDeskBenchReplaysOnExactMatch(t *testing.T) {
	prof := app.IM()
	rec, frames := replayRecording(prof, 60, 1)
	k := sim.NewKernel()
	db := NewDeskBench(k, sim.NewRNG(2), rec, 33*sim.Millisecond)
	var sent []scene.Action
	db.Attach(func(a scene.Action) { sent = append(sent, a) })
	// Feed the recording's own frames back: similarity is exact, so
	// every recorded action replays.
	for i, f := range frames {
		k.At(sim.Time(i)*sim.Time(33*sim.Millisecond)*40, func() {
			db.OnFrame(f)
		})
	}
	k.Run()
	if len(sent) == 0 {
		t.Fatal("perfect replay issued no actions")
	}
	if db.Matched() == 0 {
		t.Fatal("no similarity matches on identical frames")
	}
}

func TestDeskBenchTimesOutOnForeignFrames(t *testing.T) {
	prof := app.STK()
	rec, _ := replayRecording(prof, 60, 3)
	k := sim.NewKernel()
	db := NewDeskBench(k, sim.NewRNG(4), rec, 33*sim.Millisecond)
	sent := 0
	db.Attach(func(a scene.Action) { sent++ })
	// Feed frames from a completely different session: the similarity
	// gate must fail and the timeout path must carry the replay.
	other := scene.New(prof.Dynamics, sim.NewRNG(99))
	for i := 0; i < 400; i++ {
		other.Step(scene.ActPrimary)
		f := other.Render(int64(i), prof.Width, prof.Height)
		k.At(sim.Time(i)*sim.Time(33*sim.Millisecond), func() { db.OnFrame(f) })
	}
	k.Run()
	if sent == 0 {
		t.Fatal("timeout path never issued actions")
	}
	if db.TimedOut() == 0 {
		t.Fatal("expected timeouts against foreign frames")
	}
	if db.Matched() > db.TimedOut() {
		t.Fatalf("random 3D frames matched more than they timed out (%d vs %d)",
			db.Matched(), db.TimedOut())
	}
}

func TestDeskBenchEmptyRecordingSafe(t *testing.T) {
	k := sim.NewKernel()
	db := NewDeskBench(k, sim.NewRNG(5), &agent.Recording{}, 33*sim.Millisecond)
	db.Attach(func(a scene.Action) { t.Fatal("empty recording sent an action") })
	db.OnFrame(&scene.Frame{})
	k.Run()
}

func TestChenEstimateUnderestimates(t *testing.T) {
	k := sim.NewKernel()
	tr := trace.New(k)
	prof := app.STK()
	// Synthesize tracked inputs whose true RTT is 110ms but whose
	// visible stages sum to much less (the pipeline waits are hidden).
	for i := 0; i < 50; i++ {
		tag := tr.NextTag()
		tr.AddStage(trace.StageCS, 2*sim.Millisecond, tag)
		tr.AddStage(trace.StageSP, 400*sim.Microsecond, tag)
		tr.AddStage(trace.StageCP, 10*sim.Millisecond, tag)
		tr.AddStage(trace.StageSS, 25*sim.Millisecond, tag)
	}
	est := ChenEstimate(tr, prof, sim.NewRNG(6))
	if est.N() != 50 {
		t.Fatalf("estimated %d RTTs, want 50", est.N())
	}
	trueRTT := 110.0
	if est.Mean() >= trueRTT {
		t.Fatalf("Chen estimate %.1fms should underestimate the true %.1fms", est.Mean(), trueRTT)
	}
	if err := stats.PercentError(est.Mean(), trueRTT); err < 10 || err > 60 {
		t.Fatalf("Chen error %.1f%% out of the plausible band", err)
	}
}

func TestChenEstimateSkipsIncompleteRecords(t *testing.T) {
	k := sim.NewKernel()
	tr := trace.New(k)
	tag := tr.NextTag()
	tr.AddStage(trace.StageCS, 2*sim.Millisecond, tag) // missing SP/CP/SS
	est := ChenEstimate(tr, app.RE(), sim.NewRNG(7))
	if est.N() != 0 {
		t.Fatalf("incomplete record produced an estimate")
	}
}

type scriptedDriver struct {
	send  func(scene.Action)
	seen  int
	every int
}

func (d *scriptedDriver) Attach(send func(scene.Action)) { d.send = send }
func (d *scriptedDriver) OnFrame(f *scene.Frame) {
	d.seen++
	if d.every > 0 && d.seen%d.every == 0 {
		d.send(scene.ActPrimary)
	}
}

func TestSlowMotionPacerOneOutstanding(t *testing.T) {
	k := sim.NewKernel()
	inner := &scriptedDriver{every: 1}
	p := NewSlowMotionPacer(k, inner)
	var outstanding, maxOutstanding int
	p.Attach(func(a scene.Action) {
		outstanding++
		if outstanding > maxOutstanding {
			maxOutstanding = outstanding
		}
		// Echo a response frame after 20ms, as the serialized system
		// would.
		k.After(20*sim.Millisecond, func() {
			outstanding--
			p.OnFrame(&scene.Frame{})
		})
	})
	k.RunUntil(sim.Time(2 * sim.Second))
	if maxOutstanding > 1 {
		t.Fatalf("pacer let %d inputs fly at once", maxOutstanding)
	}
	if inner.seen == 0 {
		t.Fatal("inner driver never saw frames")
	}
}

func TestSlowMotionWatchdogKeepsFeeding(t *testing.T) {
	k := sim.NewKernel()
	inner := &scriptedDriver{every: 0} // inner never acts
	p := NewSlowMotionPacer(k, inner)
	sent := 0
	p.Attach(func(a scene.Action) {
		sent++
		k.After(15*sim.Millisecond, func() {
			p.OnFrame(&scene.Frame{})
		})
	})
	k.RunUntil(sim.Time(3 * sim.Second))
	if sent < 5 {
		t.Fatalf("watchdog sent only %d probes over 3s", sent)
	}
}
