// Package baselines implements the three prior measurement
// methodologies the paper compares Pictor against in §4:
//
//   - DeskBench (Rhee et al. / VNCPlay): replays a recorded human
//     session, gating each replayed action on pixel similarity between
//     the current and the recorded frame. Random 3D content defeats the
//     gate, distorting input timing and thus the measured RTTs.
//   - Chen et al.: human inputs, but no input tracking — RTT is
//     reconstructed by summing stages (CS + SP + AL + CP + SS), with AL
//     measured offline and the IPC stages (PS, FC, AS) invisible. The
//     reconstruction systematically underestimates.
//   - Slow-Motion (Nieh et al.): injects delays so exactly one
//     input/frame is in flight, making association trivial — but the
//     serialization removes the pipeline contention a loaded system
//     actually has, again underestimating RTT.
package baselines

import (
	"pictor/internal/agent"
	"pictor/internal/app"
	"pictor/internal/scene"
	"pictor/internal/sim"
	"pictor/internal/stats"
	"pictor/internal/trace"
)

// DeskBench replays a recorded session with frame-similarity gating.
type DeskBench struct {
	k   *sim.Kernel
	rng *sim.RNG

	// Threshold is the pixel-similarity gate (the paper tunes it per
	// benchmark and reports the best; Calibrate does the same).
	Threshold float64
	// Timeout bounds how long a replayed action waits for its frame.
	Timeout sim.Duration

	send     func(scene.Action)
	acts     []agent.Sample // acted frames only, in order
	gaps     []sim.Duration // recorded gap before each action
	idx      int
	armedAt  sim.Time
	armed    bool
	matched  int64
	timedOut int64
}

// NewDeskBench builds a replayer from a recorded human session.
// frameGap is the recording's mean frame spacing, used to reconstruct
// the recorded action timing.
func NewDeskBench(k *sim.Kernel, rng *sim.RNG, rec *agent.Recording, frameGap sim.Duration) *DeskBench {
	d := &DeskBench{
		k:         k,
		rng:       rng.Fork("deskbench"),
		Threshold: 0.93,
		Timeout:   1200 * sim.Millisecond,
	}
	lastIdx := 0
	for i, s := range rec.Samples {
		if s.Action == scene.ActNone {
			continue
		}
		d.acts = append(d.acts, s)
		d.gaps = append(d.gaps, sim.Duration(i-lastIdx)*frameGap)
		lastIdx = i
	}
	return d
}

// Attach implements vnc.Driver.
func (d *DeskBench) Attach(send func(scene.Action)) { d.send = send }

// Matched and TimedOut report how often the similarity gate passed vs
// expired — the diagnostic for why DeskBench misbehaves on 3D content.
func (d *DeskBench) Matched() int64  { return d.matched }
func (d *DeskBench) TimedOut() int64 { return d.timedOut }

// OnFrame implements vnc.Driver: replay the next recorded action once
// the display matches the recording (or the wait times out). The frame
// is compared synchronously and released before returning.
func (d *DeskBench) OnFrame(f *scene.Frame) {
	defer f.Release()
	if len(d.acts) == 0 || d.send == nil {
		return
	}
	i := d.idx % len(d.acts)
	if !d.armed {
		// Respect the recorded pacing before arming the next action.
		d.armed = true
		d.armedAt = d.k.Now().Add(d.gaps[i])
		return
	}
	if d.k.Now() < d.armedAt {
		return
	}
	similar := scene.Similarity(f.Pixels(), d.acts[i].Pixels) >= d.Threshold
	expired := d.k.Now().Sub(d.armedAt) > d.Timeout
	if !similar && !expired {
		return
	}
	if similar {
		d.matched++
	} else {
		d.timedOut++
	}
	d.send(d.acts[i].Action)
	d.idx++
	d.armed = false
}

// ChenEstimate reconstructs the RTT distribution the Chen et al.
// methodology would report from a finished (human-driven) run: for each
// tracked input, CS + SP + AL_offline + CP + SS, using the run's
// measured network/proxy stages but an offline application latency and
// no IPC stages — precisely the two flaws §4 identifies.
func ChenEstimate(tr *trace.Tracer, prof app.Profile, rng *sim.RNG) *stats.Sample {
	out := &stats.Sample{}
	// The offline "application latency" a stage-sum methodology
	// measures: input-to-displayed-frame on an idle machine — about two
	// uncontended frame periods of logic+render (input waits for the
	// next tick, renders, and is picked up a pass later) — with none of
	// the online run's proxy contention, copy stages, or queueing.
	offlineAL := 2.4 * (prof.ALBaseMs + prof.GPU.BaseRenderMs)
	for _, rec := range tr.Records() {
		cs, ok1 := rec.Stage(trace.StageCS)
		sp, ok2 := rec.Stage(trace.StageSP)
		cp, ok3 := rec.Stage(trace.StageCP)
		ss, ok4 := rec.Stage(trace.StageSS)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			continue
		}
		al := rng.LogNormalAround(offlineAL, 0.12)
		ms := (cs+sp+cp+ss).Seconds()*1e3 + al
		out.Add(ms)
	}
	return out
}

// SlowMotionPacer wraps an input-generating driver (the paper uses
// Pictor's IC) so at most one input is outstanding: the next input goes
// out only after the previous input's frame came back. Together with
// app.ModeSlowMotion this is the Slow-Motion methodology.
type SlowMotionPacer struct {
	k     *sim.Kernel
	inner interface {
		Attach(func(scene.Action))
		OnFrame(*scene.Frame)
	}

	send        func(scene.Action)
	outstanding bool
	pending     *scene.Action
}

// NewSlowMotionPacer wraps a driver. Kick starts the first input (the
// serialized system is idle until one arrives).
func NewSlowMotionPacer(k *sim.Kernel, inner interface {
	Attach(func(scene.Action))
	OnFrame(*scene.Frame)
}) *SlowMotionPacer {
	return &SlowMotionPacer{k: k, inner: inner}
}

// Attach implements vnc.Driver.
func (p *SlowMotionPacer) Attach(send func(scene.Action)) {
	p.send = send
	p.inner.Attach(p.trySend)
	// Bootstrap: the serialized app renders nothing until the first
	// input, and the IC acts on frames — break the deadlock.
	p.k.After(30*sim.Millisecond, func() { p.trySend(scene.ActCamera) })
	p.k.After(300*sim.Millisecond, p.watchdog)
}

// watchdog keeps the serialized system fed: Slow-Motion injects each
// probe input itself, so an idle inner driver (the IC often chooses not
// to act) must not stall the experiment.
func (p *SlowMotionPacer) watchdog() {
	if !p.outstanding && p.pending == nil {
		p.trySend(scene.ActCamera)
	}
	p.k.After(300*sim.Millisecond, p.watchdog)
}

func (p *SlowMotionPacer) trySend(a scene.Action) {
	if p.send == nil {
		return
	}
	if p.outstanding {
		p.pending = &a
		return
	}
	p.outstanding = true
	p.send(a)
}

// OnFrame implements vnc.Driver.
func (p *SlowMotionPacer) OnFrame(f *scene.Frame) {
	p.outstanding = false
	if p.pending != nil {
		a := *p.pending
		p.pending = nil
		p.outstanding = true
		p.send(a)
	}
	p.inner.OnFrame(f)
}
