package engine

import (
	"fmt"
	"strings"
	"testing"

	"pictor/internal/stats"
)

// tracePortal records every portal dispatch in order and lets the test
// choose per-machine engines.
type tracePortal struct {
	machines, epochs int
	trace            []string
	engines          map[int]SessionEngine
}

func (p *tracePortal) Machines() int { return p.machines }
func (p *tracePortal) Epochs() int   { return p.epochs }
func (p *tracePortal) log(phase string, epoch, machine int) {
	p.trace = append(p.trace, fmt.Sprintf("%s:e%d:m%d", phase, epoch, machine))
}
func (p *tracePortal) Depart(e int) { p.log("depart", e, -1) }
func (p *tracePortal) Fault(e int)  { p.log("fault", e, -1) }
func (p *tracePortal) Retry(e int)  { p.log("retry", e, -1) }
func (p *tracePortal) Arrive(e int) { p.log("arrive", e, -1) }
func (p *tracePortal) Gauge(e int)  { p.log("gauge", e, -1) }
func (p *tracePortal) Collect(e, mi int, me MachineEpoch) {
	p.log(fmt.Sprintf("collect(%g)", me.PowerWatts), e, mi)
}
func (p *tracePortal) React(e int) { p.log("react", e, -1) }
func (p *tracePortal) EngineFor(_, machine int) SessionEngine {
	return p.engines[machine]
}

// stubEngine reports a fixed power so Collect calls are attributable.
type stubEngine struct{ watts float64 }

func (s stubEngine) AdvanceEpoch(int, int) MachineEpoch {
	return MachineEpoch{PowerWatts: s.watts, Sessions: []SessionObs{{RTT: stats.Summary{N: 1}}}}
}

// TestRunChurnLifecycle pins the full fleet cycle: every epoch runs
// depart→fault→retry→arrive→gauge→execute(machines in order)→react,
// and a nil engine (crashed machine) skips Collect entirely.
func TestRunChurnLifecycle(t *testing.T) {
	p := &tracePortal{
		machines: 3,
		epochs:   2,
		engines: map[int]SessionEngine{
			0: stubEngine{watts: 10},
			2: stubEngine{watts: 30},
			// machine 1: nil engine — powered off, never collected.
		},
	}
	RunChurn(p, p)
	want := strings.Join([]string{
		"depart:e0:m-1", "fault:e0:m-1", "retry:e0:m-1", "arrive:e0:m-1", "gauge:e0:m-1",
		"collect(10):e0:m0", "collect(30):e0:m2", "react:e0:m-1",
		"depart:e1:m-1", "fault:e1:m-1", "retry:e1:m-1", "arrive:e1:m-1", "gauge:e1:m-1",
		"collect(10):e1:m0", "collect(30):e1:m2", "react:e1:m-1",
	}, "\n")
	if got := strings.Join(p.trace, "\n"); got != want {
		t.Fatalf("lifecycle trace:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunChurnZeroEpochs pins the empty horizon: nothing dispatches.
func TestRunChurnZeroEpochs(t *testing.T) {
	p := &tracePortal{machines: 2, epochs: 0}
	RunChurn(p, p)
	if len(p.trace) != 0 {
		t.Fatalf("zero-epoch run dispatched %v", p.trace)
	}
}
