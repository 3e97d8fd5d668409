package fleet

import (
	"fmt"
	"math"
	"sort"
)

// Churn bookkeeping: a one-shot fleet admits a fixed-length stream once
// and never looks back, but real cloud-gaming fleets face tenants that
// arrive (Poisson), stay (exponential session lengths) and leave — and
// must be re-placed when a machine's measured interactivity degrades.
// This file owns the placement bookkeeping over time (arrival.go owns
// the arrival schedule); it deliberately knows nothing about executing
// a machine — the assembly layer (internal/core's churn portal) drives
// the epoch loop and feeds measured RTTs back into MigrateOff. The
// one-shot fleet admits through the same Offer, at epoch 0.

// Session is one churn tenant: a benchmark instance that arrives in
// some epoch, runs on one machine, and departs when its exponential
// session length elapses. Where it runs is recorded once, by the
// machine whose Placed list holds it. It is 32 bytes: the profile it
// runs is a handle into its source's catalog, not a copy.
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
}

// MaxArrivalRate bounds a churn shape's arrival rate and a schedule's
// peak, in sessions per epoch: 50 times the largest shipped rate
// (diurnal-1m's peak of 20,000). The Poisson sampler works a huge mean
// down in chunks of 500, and at 1e300 a chunk no longer changes the
// mean, so an unbounded rate would never finish drawing.
const MaxArrivalRate = 1e6

// ValidateChurnParams checks the churn-shape vocabulary with actionable
// messages. It is shared by NewChurnSource and the shape validators, so
// a typo fails identically whether it arrives via the CLI or the API.
func ValidateChurnParams(rate, meanEpochs float64, epochs int) error {
	if epochs < 1 {
		return fmt.Errorf("fleet: churn needs at least 1 epoch, got %d", epochs)
	}
	if !(rate > 0) || !(rate <= MaxArrivalRate) {
		return fmt.Errorf("fleet: churn arrival rate must be > 0 and <= %g sessions/epoch, got %g", float64(MaxArrivalRate), rate)
	}
	if !(meanEpochs > 0) || math.IsInf(meanEpochs, 1) {
		return fmt.Errorf("fleet: churn mean session length must be a finite number > 0 epochs, got %g", meanEpochs)
	}
	return nil
}

// Churn drives a fleet through arrivals, departures and migrations.
// Each machine's Placed list is the record of its residents; every
// operation here reads and edits those lists directly. Per-epoch event
// counts come back from the calls that cause them (Offer, DepartDue,
// RetryDue, EvictAll, MigrateOff); Churn itself counts only what no
// call returns.
type Churn struct {
	Fleet  *Fleet
	Policy Placement
	// Active counts the sessions currently placed fleet-wide.
	Active int
	// Retry configures failover for evicted and admission-rejected
	// sessions; the zero value keeps the historical drop-on-failure
	// behaviour (see faults.go).
	Retry RetryPolicy
	// Lost counts sessions whose lifecycle ended without service: a
	// rejection or eviction with no retry left, or a tenant that
	// departed while queued (see faults.go).
	Lost int
	// retryQ holds sessions waiting for a failover attempt, in enqueue
	// order (deterministic: the epoch loop drains it front to back).
	retryQ []retryEntry
	// Pool, when set, receives every session whose lifecycle has
	// terminally ended — departed, rejected with no retry pending, or
	// lost — so the source can hand the allocation out again. Nil keeps
	// the historical leave-it-to-the-GC behaviour.
	Pool *ChurnSource
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
	return &Churn{Fleet: f, Policy: p}
}

// admit offers a session to the policy at its current served fidelity
// and records the placement. It is the single admission path shared by
// Offer and RetryDue, so every outcome reverses identically.
func (c *Churn) admit(s *Session) bool {
	if c.Fleet.placeOne(s, c.Policy) < 0 {
		return false
	}
	c.Active++
	return true
}

// DepartDue releases every resident session whose Departs epoch has
// been reached, returning how many left. Releases recompute machine
// demand over the survivors (see Machine.release), so a departure
// reverses the session's place bookkeeping exactly.
func (c *Churn) DepartDue(epoch int) int {
	departed := 0
	for _, m := range c.Fleet.Machines {
		for slot := len(m.Placed) - 1; slot >= 0; slot-- {
			s := m.Placed[slot]
			if s.Departs > epoch {
				continue
			}
			m.release(slot)
			departed++
			c.recycle(s)
		}
	}
	c.Active -= departed
	return departed
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
// shedding its heaviest *movable* tenant. A move releases the victim
// from mi's Placed list and appends it to the target's. It reports
// whether a migration happened; when the rest of the fleet has no room
// (or is measuring no better than the source), nothing moves —
// migration must never turn into an eviction or a swap of one hot
// machine for another.
func (c *Churn) MigrateOff(mi int, rttMs []float64) bool {
	src := c.Fleet.Machines[mi]
	placed := src.Placed
	order := make([]int, len(placed))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return placed[order[a]].Variant.Demand > placed[order[b]].Variant.Demand
	})
	for _, victim := range order {
		s := placed[victim]
		d := s.Variant.Demand
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
		src.release(victim)
		c.Fleet.Machines[target].place(s)
		return true
	}
	return false
}
