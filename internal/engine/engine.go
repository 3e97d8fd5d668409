// Package engine drives fleet churn: a fixed epoch loop that calls the
// fleet lifecycle and the per-machine session engines through portal
// interfaces.
//
// Every epoch runs the fleet-scope phases in their historical order
// (depart, fault, retry, arrive, gauge), then advances each machine in
// index order through the session engine its fidelity tier selects,
// then reacts. The *implementations* behind the portals decide how
// much a machine-epoch costs: a SessionEngine may run the full
// per-frame simulation or a cheap trained surrogate, and the loop
// neither knows nor cares, which is what lets a sweep mix fidelity
// tiers per machine and scale to a million sessions.
//
// Like internal/exp and internal/fleet, the package is deliberately a
// leaf (it imports only internal/stats): the assembly layer
// (internal/core) implements the portals and injects them, so the
// simulator layers compose behind interfaces instead of importing each
// other — the pces/mrnes NetSimPortal pattern.
package engine

import "pictor/internal/stats"

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
	// Demand echoes the predicted CPU demand the machine executed at.
	Demand float64
	// Sessions holds one observation per resident, in placement order.
	// An engine may reuse the backing array: the slice is valid until
	// the same engine's next AdvanceEpoch call.
	Sessions []SessionObs
}

// SessionEngine advances one machine's resident sessions through one
// epoch and reports what they measured. It is the fidelity boundary:
// the full engine builds and runs a per-frame simulated cluster, the
// surrogate engine evaluates trained per-profile demand/RTT predictors
// — both behind the same three-quantity contract (advance one epoch,
// echo demand, sample RTT per session).
type SessionEngine interface {
	AdvanceEpoch(epoch, machine int) MachineEpoch
}

// EnginePicker selects the session engine for one machine-epoch — the
// fidelity-tier dispatch. Returning nil skips the machine entirely (a
// crashed machine is powered off: it executes nothing, measures
// nothing, and burns nothing).
type EnginePicker interface {
	EngineFor(epoch, machine int) SessionEngine
}

// FleetPortal is the fleet layer's lifecycle, one method per
// fleet-scope phase. RunChurn calls it in phase order; Collect
// receives each machine's measurements right after the machine
// advances (machine index order, so pooled aggregates are
// byte-stable).
type FleetPortal interface {
	// Machines and Epochs size the loop.
	Machines() int
	Epochs() int
	Depart(epoch int)
	Fault(epoch int)
	Retry(epoch int)
	Arrive(epoch int)
	Gauge(epoch int)
	Collect(epoch, machine int, me MachineEpoch)
	React(epoch int)
}

// RunChurn drives a fleet portal over its horizon: for every epoch,
// the lifecycle phases in order, one advance per machine (through the
// picker's fidelity dispatch) immediately collected, then the react
// phase. The loop runs sequentially — the experiment runner
// parallelizes across trials, never inside one — so a run's call order
// is fixed by the horizon and the machine count alone.
func RunChurn(p FleetPortal, picker EnginePicker) {
	machines, epochs := p.Machines(), p.Epochs()
	for e := 0; e < epochs; e++ {
		p.Depart(e)
		p.Fault(e)
		p.Retry(e)
		p.Arrive(e)
		p.Gauge(e)
		for mi := 0; mi < machines; mi++ {
			if eng := picker.EngineFor(e, mi); eng != nil {
				p.Collect(e, mi, eng.AdvanceEpoch(e, mi))
			}
		}
		p.React(e)
	}
}
