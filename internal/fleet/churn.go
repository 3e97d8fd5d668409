package fleet

import (
	"fmt"
	"math"
	"sort"
)

// Churn bookkeeping: the fleet admitted a fixed-length stream once and
// never looked back, but real cloud-gaming fleets face tenants that
// arrive (Poisson), stay (exponential session lengths) and leave — and
// must be re-placed when a machine's measured interactivity degrades.
// This file owns the placement bookkeeping over time (arrival.go owns
// the arrival schedule); it deliberately knows nothing about executing
// a machine — the assembly layer (internal/core's churn portal) drives
// the epoch loop and feeds measured RTTs back into MigrateOff.

// Session is one churn tenant: a benchmark instance that arrives in
// some epoch, runs on one machine, and departs when its exponential
// session length elapses. It is 40 bytes: the profile it runs is a
// handle into its source's catalog, not a copy.
type Session struct {
	// ID is the arrival sequence number (stable identity; migration
	// victims tie-break toward the lower ID).
	ID int
	// Variant is the benchmark the tenant runs at its current brown-out
	// tier (Variant.Tier): 0 is full fidelity, higher tiers serve a
	// reduced resolution (see DegradedProfile). Evictions reset the
	// tier — a re-admitted session starts at full fidelity again.
	Variant *Variant
	// Arrive is the epoch the session arrives in.
	Arrive int
	// Departs is the first epoch the session is gone (Arrive + its
	// sampled duration, always >= Arrive + 1).
	Departs int
	// Machine is the session's current machine index; -1 while
	// unplaced or after a rejection.
	Machine int
}

// ValidateChurnParams checks the churn-shape vocabulary with actionable
// messages. It is shared by NewChurnSource and the shape validators, so
// a typo fails identically whether it arrives via the CLI or the API.
func ValidateChurnParams(rate, meanEpochs float64, epochs int) error {
	if epochs < 1 {
		return fmt.Errorf("fleet: churn needs at least 1 epoch, got %d", epochs)
	}
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("fleet: churn arrival rate must be a finite number > 0 sessions/epoch, got %g", rate)
	}
	if !(meanEpochs > 0) || math.IsInf(meanEpochs, 1) {
		return fmt.Errorf("fleet: churn mean session length must be a finite number > 0 epochs, got %g", meanEpochs)
	}
	return nil
}

// Churn drives a fleet through arrivals, departures and migrations. It
// maintains the invariant that sessions[mi] is index-aligned with
// Fleet.Machines[mi].Placed (same order), so every release maps a
// session to exactly the placement slot it occupies.
type Churn struct {
	Fleet  *Fleet
	Policy Placement
	// sessions holds each machine's resident sessions in placement
	// order, index-aligned with Fleet.Machines.
	sessions [][]*Session
	// Active counts the sessions currently placed fleet-wide.
	Active int
	// Rejected, Departed and Migrations count lifecycle events since
	// construction.
	Rejected   int
	Departed   int
	Migrations int
	// Retry configures failover for evicted and admission-rejected
	// sessions; the zero value keeps the historical drop-on-failure
	// behaviour (see faults.go).
	Retry RetryPolicy
	// Evicted, Retried, Recovered and Lost count failover lifecycle
	// events since construction (see faults.go).
	Evicted   int
	Retried   int
	Recovered int
	Lost      int
	// retryQ holds sessions waiting for a failover attempt, in enqueue
	// order (deterministic: the epoch loop drains it front to back).
	retryQ []retryEntry
	// Pool, when set, receives every session whose lifecycle has
	// terminally ended — departed, rejected with no retry pending, or
	// lost — so a streaming source can reuse the allocation. Nil keeps
	// the historical leave-it-to-the-GC behaviour.
	Pool SessionPool
}

// recycle hands a terminally-finished session back to the pool. Every
// call site is a point where no queue, machine or caller may reference
// the session again.
func (c *Churn) recycle(s *Session) {
	if c.Pool != nil {
		c.Pool.Recycle(s)
	}
}

// NewChurn wraps a fleet and a placement policy for churn-driven
// admission. The policy persists across epochs (stateful policies like
// round-robin keep their cursor).
func NewChurn(f *Fleet, p Placement) *Churn {
	return &Churn{Fleet: f, Policy: p, sessions: make([][]*Session, len(f.Machines))}
}

// admit offers a session to the policy at its current served fidelity
// and records the placement. It is the single admission path shared by
// Offer and RetryDue, so every outcome reverses identically.
func (c *Churn) admit(s *Session) bool {
	mi := c.Fleet.placeOne(s.Variant, c.Policy)
	if mi < 0 {
		return false
	}
	s.Machine = mi
	c.sessions[mi] = append(c.sessions[mi], s)
	c.Active++
	return true
}

// DepartDue releases every resident session whose Departs epoch has
// been reached, returning how many left. Releases recompute machine
// demand over the survivors (see Machine.release), so a departure
// reverses the session's place bookkeeping exactly.
func (c *Churn) DepartDue(epoch int) int {
	departed := 0
	for mi := range c.sessions {
		for slot := len(c.sessions[mi]) - 1; slot >= 0; slot-- {
			s := c.sessions[mi][slot]
			if s.Departs > epoch {
				continue
			}
			c.releaseSlot(mi, slot)
			s.Machine = -1
			departed++
			c.recycle(s)
		}
	}
	c.Departed += departed
	c.Active -= departed
	return departed
}

// releaseSlot removes slot i from machine mi on both sides of the
// session↔placement alignment.
func (c *Churn) releaseSlot(mi, i int) {
	c.Fleet.Machines[mi].release(i)
	c.sessions[mi] = append(c.sessions[mi][:i], c.sessions[mi][i+1:]...)
}

// MigrateOff moves one session off machine mi, targeting by *measured*
// interactivity: rttMs holds each machine's mean RTT from the previous
// epoch's execution (0 for idle machines), and the destination is the
// eligible machine with the lowest measured RTT (ties toward the lower
// index). Placement policies rank by predicted demand, but prediction
// missing an interference effect is exactly why a machine degrades —
// the controller must trust the measurement on both ends, or it would
// happily "relieve" a hot machine by heating up another.
//
// Victim candidates are tried in decreasing predicted-CPU-demand order
// (ties toward the earlier slot, i.e. the lower session ID), falling
// back to lighter sessions: the heaviest tenant is exactly the one
// hardest to re-place, and an overloaded machine is still relieved by
// shedding its heaviest *movable* tenant. It reports whether a
// migration happened; when the rest of the fleet has no room (or is
// measuring no better than the source), nothing moves — migration must
// never turn into an eviction or a swap of one hot machine for another.
func (c *Churn) MigrateOff(mi int, rttMs []float64) bool {
	// The source's placed variants are its residents at their served
	// tiers (slots align with sessions).
	placed := c.Fleet.Machines[mi].Placed
	order := make([]int, len(placed))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return placed[order[a]].Demand > placed[order[b]].Demand
	})
	for _, victim := range order {
		s := c.sessions[mi][victim]
		d := placed[victim].Demand
		target := -1
		for _, m := range c.Fleet.Machines {
			// Targets must be up and must hold the session *without*
			// overcommit: admission overcommits (×Overcommit) for
			// density, but a QoS-restoring move that lands the tenant
			// on a machine already past its un-overcommitted capacity
			// just recreates the violation somewhere else.
			if m.Index == mi || m.State != MachineUp || !m.Fits(d, 1) {
				continue
			}
			// A target must measure both better than the source *and*
			// within the QoS ceiling itself: "merely less hot" is not
			// good enough — dumping load on a machine that is already
			// violating worsens its violation and invites ping-ponging
			// sessions between hot machines.
			if rttMs[m.Index] >= rttMs[mi] || rttMs[m.Index] > QoSMaxRTTMs {
				continue
			}
			if target < 0 || rttMs[m.Index] < rttMs[target] {
				target = m.Index
			}
		}
		if target < 0 {
			continue
		}
		c.releaseSlot(mi, victim)
		c.Fleet.Machines[target].place(s.Variant)
		c.sessions[target] = append(c.sessions[target], s)
		s.Machine = target
		c.Migrations++
		return true
	}
	return false
}

// Resident returns machine mi's sessions in placement order (aliases
// internal state; callers must not mutate).
func (c *Churn) Resident(mi int) []*Session { return c.sessions[mi] }
