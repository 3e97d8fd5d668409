package core

import (
	"sort"

	"pictor/internal/exp"
	"pictor/internal/fleet"
	"pictor/internal/stats"
)

// SessionObs is one session's epoch measurement, whatever fidelity tier
// produced it: its RTT distribution over the epoch and whether it fell
// below the interactivity floor.
type SessionObs struct {
	// RTT is the session's round-trip-time distribution for the epoch
	// (N == 0 means the session produced no observations).
	RTT stats.Summary
	// QoSViolation marks the session below the 25-FPS floor.
	QoSViolation bool
}

// MachineEpoch is one machine's epoch outcome: the measurements of its
// resident sessions plus machine-level rollups.
type MachineEpoch struct {
	// PowerWatts is the machine's modelled wall power over the epoch.
	PowerWatts float64
	// Sessions holds one observation per resident, in placement order.
	// An engine may reuse the backing array: the slice is valid until
	// the same engine's next AdvanceEpoch call.
	Sessions []SessionObs
}

// SessionEngine advances one machine's resident sessions through one
// epoch and reports what they measured. It is the fidelity boundary:
// fullEngine builds and runs a per-frame simulated cluster,
// surrogateEngine evaluates trained per-profile demand/RTT predictors —
// both behind the same contract (advance one epoch, sample RTT per
// session).
type SessionEngine interface {
	AdvanceEpoch(epoch, machine int) MachineEpoch
}

// churnPortal executes one churn-shaped trial. Its run method is the
// epoch loop; each phase of the loop is a method of its own (depart,
// fault, retry, arrive, gauge, the fidelity dispatch EngineFor,
// collect, react), so a profile charges every phase to a named frame.
// The loop calls them in the exact order the historical nested loop
// ran, so a full-fidelity run is byte-identical to it.
type churnPortal struct {
	t          exp.Trial
	sh         exp.FleetShape
	u          exp.Unit
	streamBase int64

	c        *fleet.Churn
	f        *fleet.Fleet
	src      *fleet.ChurnSource
	timeline [][]fleet.MachineState

	// sink observes each finished epoch; streaming marks that rows are
	// not retained in out, so the horizon-wide per-observation RTT list
	// (allRTTs, growing with executed session-epochs) must not be kept
	// either — rollupRTTs pools per epoch instead, O(epochs).
	sink      ChurnSink
	streaming bool

	// full runs the per-frame simulator; surrogate (nil without
	// SurrogateTail) evaluates the calibrated predictors; machines
	// [0, sampled) stay on full fidelity.
	full      *fullEngine
	surrogate *surrogateEngine
	sampled   int

	out *ChurnResult
	// Per-epoch scratch, reset at Gauge and folded into out at React;
	// machineRTT holds one entry per machine for the trial's lifetime.
	er         EpochResult
	machineRTT []stats.Summary
	epochRTTs  []stats.Summary
	allRTTs    []stats.Summary
	rollupRTTs []stats.Summary
}

// run drives the trial through its horizon. Every epoch runs the
// fleet-scope phases in order (depart, fault, retry, arrive, gauge),
// then advances each machine in index order through the engine its
// fidelity tier selects and collects it at once (so pooled aggregates
// are byte-stable), then reacts. The loop is sequential — the
// experiment runner parallelizes across trials, never inside one — so
// the call order is fixed by the horizon and the machine count alone.
func (p *churnPortal) run() {
	for e := 0; e < p.sh.Epochs; e++ {
		p.Depart(e)
		p.Fault(e)
		p.Retry(e)
		p.Arrive(e)
		p.Gauge(e)
		for mi := range p.f.Machines {
			if eng := p.EngineFor(mi); eng != nil {
				p.Collect(mi, eng.AdvanceEpoch(e, mi))
			}
		}
		p.React(e)
	}
}

// Depart opens the epoch: reset the epoch scratch and release every
// session whose horizon elapsed.
func (p *churnPortal) Depart(e int) {
	p.er = EpochResult{Epoch: e}
	p.er.Departures = p.c.DepartDue(e)
}

// Fault applies this epoch's fault states. A machine entering Down
// crashes: its residents are force-released into the failover queue
// (or lost, with retries off). Repaired machines pass through a
// cold-start epoch before taking placements again.
func (p *churnPortal) Fault(e int) {
	if p.timeline == nil {
		return
	}
	for mi, m := range p.f.Machines {
		st := p.timeline[mi][e]
		if st == fleet.MachineDown && m.State != fleet.MachineDown {
			p.er.Crashes++
			m.State = st
			p.er.Evicted += p.c.EvictAll(mi, e)
			continue
		}
		m.State = st
	}
}

// Retry runs the failover attempts that matured this epoch.
func (p *churnPortal) Retry(e int) {
	p.er.Retried, p.er.Recovered = p.c.RetryDue(e)
}

// Arrive pulls the epoch's arrivals from the streaming source and
// offers them to the placement policy. Each arrival's horizon-clipped
// wanted epochs fold into the offered gauge before the offer — the
// availability denominator counts rejected tenants too.
func (p *churnPortal) Arrive(e int) {
	for _, s := range p.src.Next(e) {
		p.er.Arrivals++
		end := s.Departs
		if end > p.sh.Epochs {
			end = p.sh.Epochs
		}
		p.er.OfferedSessionEpochs += end - s.Arrive
		if !p.c.Offer(s, e) {
			p.er.Rejected++
		}
	}
}

// Gauge snapshots post-admission state: the active-session and
// brown-out gauges, the per-machine measurement scratch, and (opt-in)
// the epoch's occupancy rows. Measurement fields of the rows are
// filled as Collect drains.
func (p *churnPortal) Gauge(e int) {
	p.er.Active = p.c.Active
	for mi := range p.f.Machines {
		p.er.Degraded += p.c.DegradedResidents(mi)
	}
	clear(p.machineRTT) // a crashed machine is never collected: it reads zero
	p.epochRTTs = p.epochRTTs[:0]
	if !p.sh.OccupancyDetail {
		return
	}
	rows := make([]MachineOccupancy, len(p.f.Machines))
	for mi, m := range p.f.Machines {
		rows[mi] = MachineOccupancy{
			Machine:   mi,
			State:     m.State,
			Residents: len(m.Placed),
			Degraded:  p.c.DegradedResidents(mi),
			Demand:    m.Demand,
			Surrogate: p.surrogate != nil && mi >= p.sampled && m.State != fleet.MachineDown,
		}
	}
	p.er.Occupancy = rows
}

// EngineFor is the fidelity dispatch: crashed machines are powered off
// (nil — they execute nothing, measure nothing and burn nothing), the
// sampled cohort runs the per-frame simulator, and the tail runs the
// surrogate when the shape enables it.
func (p *churnPortal) EngineFor(mi int) SessionEngine {
	if p.f.Machines[mi].State == fleet.MachineDown {
		return nil
	}
	if p.surrogate != nil && mi >= p.sampled {
		return p.surrogate
	}
	return p.full
}

// Collect folds one machine's epoch measurements into the epoch
// scratch. The loop delivers machines in index order, so the pooled
// aggregates are byte-stable; the machine's summaries are its own
// sub-slice of epochRTTs.
func (p *churnPortal) Collect(mi int, me MachineEpoch) {
	p.er.PowerWatts += me.PowerWatts
	first := len(p.epochRTTs)
	for _, s := range me.Sessions {
		if s.QoSViolation {
			p.er.QoSViolations++
		}
		if s.RTT.N > 0 {
			p.epochRTTs = append(p.epochRTTs, s.RTT)
		}
	}
	p.machineRTT[mi] = exp.PoolSummaries(p.epochRTTs[first:])
	if p.sh.OccupancyDetail {
		p.er.Occupancy[mi].RTTMean = p.machineRTT[mi].Mean
		p.er.Occupancy[mi].PowerWatts = me.PowerWatts
	}
}

// React closes the epoch: pool the epoch's measurements, hand machines
// over the QoS ceiling (worst measured RTT first) to the brown-out and
// migration controllers, and fold the epoch into the horizon rollups.
// With brown-out tiers enabled a violator first degrades its heaviest
// resident — quality sheds before anyone is moved or dropped — and
// only falls back to the migration controller when every resident is
// already at the deepest tier. Machines measuring below the all-clear
// threshold restore one degraded resident per epoch. The moves and
// tier changes land before the next epoch executes; the final epoch
// skips the controllers — there is no next epoch for them to help.
func (p *churnPortal) React(e int) {
	p.er.RTT = exp.PoolSummaries(p.epochRTTs)
	if p.streaming {
		if p.er.RTT.N > 0 {
			p.rollupRTTs = append(p.rollupRTTs, p.er.RTT)
		}
	} else {
		p.allRTTs = append(p.allRTTs, p.epochRTTs...)
	}

	sh := p.sh
	if (sh.Migrate || sh.Degrade) && e < sh.Epochs-1 {
		rtt := make([]float64, len(p.f.Machines))
		violators := make([]int, 0, len(p.f.Machines))
		for mi := range p.f.Machines {
			if p.machineRTT[mi].N > 0 {
				rtt[mi] = p.machineRTT[mi].Mean
				if rtt[mi] > fleet.QoSMaxRTTMs {
					violators = append(violators, mi)
				}
			}
		}
		sort.SliceStable(violators, func(a, b int) bool {
			return rtt[violators[a]] > rtt[violators[b]]
		})
		for _, mi := range violators {
			if sh.Degrade && p.c.DegradeToFit(mi) > 0 {
				continue
			}
			if sh.Migrate && p.c.MigrateOff(mi, rtt) {
				p.er.Migrations++
			}
		}
		if sh.Degrade {
			for mi := range p.f.Machines {
				if p.machineRTT[mi].N > 0 && rtt[mi] < fleet.QoSClearRTTMs {
					p.c.UpgradeOne(mi)
				}
			}
		}
	}

	p.sink.ObserveEpoch(p.er)

	out := p.out
	out.Arrivals += p.er.Arrivals
	out.OfferedSessionEpochs += p.er.OfferedSessionEpochs
	out.Departures += p.er.Departures
	out.Migrations += p.er.Migrations
	out.Rejected += p.er.Rejected
	out.QoSViolations += p.er.QoSViolations
	out.Crashes += p.er.Crashes
	out.Evicted += p.er.Evicted
	out.Retried += p.er.Retried
	out.Recovered += p.er.Recovered
	out.DegradedSessionEpochs += p.er.Degraded
	out.CompliantSessionEpochs += p.er.Active - p.er.QoSViolations
	out.MeanActive += float64(p.er.Active) / float64(sh.Epochs)
	out.MeanPowerWatts += p.er.PowerWatts / float64(sh.Epochs)
}

// fullEngine is the full-fidelity session engine: one per-frame
// simulated cluster per machine-epoch, exactly the execution the
// historical nested loop ran.
type fullEngine struct {
	p *churnPortal
}

// machineEpochKey prefixes each machine-epoch's cluster seed key,
// "fleet/churn/m<machine>/e<epoch>".
var machineEpochKey = exp.NewSeedKey("fleet/churn/m")

// AdvanceEpoch builds and runs machine mi's cluster for epoch e.
// Per-(machine, epoch) seeds derive from the stream base — not the
// unit seed, which encodes policy and Migrate — so a migration-vs-
// static (or policy) comparison runs matched execution noise and the
// delta is the placement's doing. Mixing in u.Rep keeps repetitions
// independent. Idle machines still run (an empty cluster burns idle
// watts — consolidation's whole power argument rests on that).
func (fe *fullEngine) AdvanceEpoch(e, mi int) MachineEpoch {
	p := fe.p
	m := p.f.Machines[mi]
	cl := runPlaced(p.t, m, machineEpochKey.Int(mi).Str("/e").Int(e).Seed(p.streamBase, p.u.Rep))
	me := MachineEpoch{
		PowerWatts: cl.TotalPowerWatts(),
		Sessions:   make([]SessionObs, 0, len(cl.Instances)),
	}
	for _, inst := range cl.Instances {
		r := inst.Result()
		me.Sessions = append(me.Sessions, SessionObs{
			RTT:          r.RTT,
			QoSViolation: r.ClientFPS < fleet.QoSMinFPS,
		})
	}
	return me
}
