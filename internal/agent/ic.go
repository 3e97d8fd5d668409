package agent

import (
	"pictor/internal/app"
	"pictor/internal/scene"
	"pictor/internal/sim"
	"pictor/internal/stats"
)

// IntelligentClient is Pictor's AI player (Figure 3): each displayed
// frame is decompressed (the proxy already charged that), recognized by
// the CNN, fed to the LSTM, and the sampled action — if any — is sent
// back through the client proxy. While a frame is being analyzed, newer
// frames replace the waiting one (the client always works on the most
// recent state, like a human).
type IntelligentClient struct {
	k    *sim.Kernel
	rng  *sim.RNG
	prof app.Profile
	sess *BatchSession
	send func(scene.Action)

	busy    bool
	latest  *scene.Frame
	actions int64

	// The analysis in flight (one at a time, guarded by busy): the
	// sampled action waits out the RNN latency in act. recognized and
	// decided are method values bound once in the constructor.
	act                 scene.Action
	recognized, decided func()

	// CVTimes and RNNTimes are the measured inference latencies
	// (Figure 7), in milliseconds.
	CVTimes  stats.Sample
	RNNTimes stats.Sample
}

// NewIntelligentClientInBatch creates the driver around a session of a
// BatchModels. Clients that share a machine share one BatchModels, so
// their per-frame CNN passes coalesce.
func NewIntelligentClientInBatch(k *sim.Kernel, rng *sim.RNG, prof app.Profile, sess *BatchSession) *IntelligentClient {
	sess.ResetState()
	ic := &IntelligentClient{
		k:    k,
		rng:  rng.Fork("ic-" + prof.Name),
		prof: prof,
		sess: sess,
	}
	ic.recognized, ic.decided = ic.cvDone, ic.rnnDone
	return ic
}

// Attach implements vnc.Driver.
func (ic *IntelligentClient) Attach(send func(scene.Action)) { ic.send = send }

// APM reports achieved actions-per-minute over the elapsed sim time.
func (ic *IntelligentClient) APM() float64 {
	secs := ic.k.Now().Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(ic.actions) / secs * 60
}

// OnFrame implements vnc.Driver. A frame superseded before analysis
// goes straight back to the scene's free list — the client always works
// on the most recent state, so the waiting frame is dead.
func (ic *IntelligentClient) OnFrame(f *scene.Frame) {
	if ic.latest != nil && ic.latest != f {
		ic.latest.Release()
	}
	ic.latest = f
	ic.maybeProcess()
}

func (ic *IntelligentClient) maybeProcess() {
	if ic.busy || ic.latest == nil {
		return
	}
	f := ic.latest
	ic.latest = nil
	ic.busy = true

	// The CNN genuinely runs on the frame's pixels; the simulated
	// latency models the client machine executing a MobileNets-class
	// network (the real network here is far smaller than its wall-time
	// budget, so the budget comes from the profile). The pixels are
	// copied into the session's submit buffer, so the frame can be
	// recycled immediately; the CNN itself runs batched with the other
	// sessions on this machine when the first result is demanded,
	// within this client's simulated CV latency window.
	ic.sess.SubmitFrame(f.Pixels())
	f.Release()
	cv := ic.rng.Jitter(sim.DurationOfSeconds(ic.prof.CVLatencyMs/1e3), 0.10)
	ic.CVTimes.Add(float64(cv) / float64(sim.Millisecond))
	ic.k.After(cv, ic.recognized)
}

// cvDone feeds the recognized objects to the LSTM and samples an
// action, which is sent once the RNN latency has passed.
func (ic *IntelligentClient) cvDone() {
	logits := ic.sess.NextActionLogits(ic.sess.Detected())
	ic.act = SampleAction(logits, ic.rng)
	rnn := ic.rng.Jitter(sim.DurationOfSeconds(ic.prof.RNNLatencyMs/1e3), 0.15)
	ic.RNNTimes.Add(float64(rnn) / float64(sim.Millisecond))
	ic.k.After(rnn, ic.decided)
}

// rnnDone sends the sampled action, if any, and analyzes the latest
// frame.
func (ic *IntelligentClient) rnnDone() {
	act := ic.act
	ic.act = scene.ActNone
	if act != scene.ActNone && act.Valid() {
		ic.actions++
		if ic.send != nil {
			ic.send(act)
		}
	}
	ic.busy = false
	ic.maybeProcess()
}
