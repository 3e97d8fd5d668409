package agent

import (
	"pictor/internal/app"
	"pictor/internal/scene"
	"pictor/internal/sim"
)

// MinActionGap is the floor on time between two human inputs
// (≈ 300 actions/minute at sustained pace, per the paper's comparison
// with professional players).
const MinActionGap = 140 * sim.Millisecond

// Human is the reference player: it perceives the frame's objects
// directly (Frame.Cells), decides with the genre policy, and acts after
// a human reaction delay at a human action rate.
type Human struct {
	k    *sim.Kernel
	rng  *sim.RNG
	prof app.Profile
	send func(scene.Action)

	// Observer, when set, sees every displayed frame with the action
	// the human chose for it (ActNone when the human did not act) —
	// the recording tap.
	Observer func(f *scene.Frame, act scene.Action)

	nextAllowed sim.Time
	actions     int64
}

// NewHuman creates the reference player for a benchmark.
func NewHuman(k *sim.Kernel, rng *sim.RNG, prof app.Profile) *Human {
	return &Human{k: k, rng: rng.Fork("human-" + prof.Name), prof: prof}
}

// Attach implements vnc.Driver.
func (h *Human) Attach(send func(scene.Action)) { h.send = send }

// Actions reports how many inputs the human has issued.
func (h *Human) Actions() int64 { return h.actions }

// OnFrame implements vnc.Driver: maybe act on what is displayed. The
// human perceives the frame synchronously, so it is released before
// returning (observers copy what they keep).
func (h *Human) OnFrame(f *scene.Frame) {
	act := scene.ActNone
	if h.k.Now() >= h.nextAllowed && h.rng.Bool(h.prof.HumanActProb) {
		act = PolicyAction(h.prof, f.Cells, h.rng)
	}
	if h.Observer != nil {
		h.Observer(f, act)
	}
	f.Release()
	if act == scene.ActNone {
		return
	}
	reaction := h.rng.Jitter(sim.DurationOfSeconds(h.prof.HumanReactionMs/1e3), 0.25)
	h.nextAllowed = h.k.Now().Add(reaction + MinActionGap)
	h.actions++
	h.k.After(reaction, func() { h.send(act) })
}

// Sample is one recorded (frame, action) pair of a human session.
type Sample struct {
	Pixels []float64
	Cells  []scene.Cell
	Action scene.Action
}

// Recording is a captured human session: the training input for the
// intelligent client's CNN (labels from Cells) and LSTM (actions).
type Recording struct {
	Benchmark string
	Samples   []Sample
}

// NewRecorder taps a Human so every displayed frame and chosen action
// lands in the returned Recording.
func NewRecorder(h *Human, benchmark string) *Recording {
	rec := &Recording{Benchmark: benchmark}
	h.Observer = func(f *scene.Frame, act scene.Action) {
		px := append([]float64(nil), f.Pixels()...)
		cs := make([]scene.Cell, len(f.Cells))
		copy(cs, f.Cells)
		rec.Samples = append(rec.Samples, Sample{Pixels: px, Cells: cs, Action: act})
	}
	return rec
}
