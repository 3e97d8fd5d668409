package fleet

import (
	"fmt"
	"math"

	"pictor/internal/app"
	"pictor/internal/sim"
)

// Fault injection: per-machine crash/repair processes, session failover
// with bounded retry/backoff, and brown-out quality tiers. Like the
// churn schedule, every random draw happens up front (FaultStream) from
// a seeded sim.RNG fork, so a faulty fleet is byte-identical at any
// -parallel level. This file owns the placement-time mechanics; the
// assembly layer (internal/core) drives the epoch loop, applies the
// schedule, and decides when to degrade or upgrade from measured RTT.

// MachineState is a machine's availability under fault injection.
type MachineState uint8

const (
	// MachineUp is the zero value: the machine serves placements
	// normally. Fault-free fleets never leave this state.
	MachineUp MachineState = iota
	// MachineDown is a crashed machine: residents are evicted, no
	// placements or migrations target it, and it burns no power.
	MachineDown
	// MachineCold is the post-repair cold start: the machine is
	// powered (idle watts) but takes no placements yet — caches,
	// trained models and GPU state are still warming.
	MachineCold
)

// ColdStartEpochs is how many epochs a repaired machine spends in
// MachineCold before taking placements again.
const ColdStartEpochs = 1

// ValidateFaultParams checks the fault-injection vocabulary with
// actionable messages, shared by FaultStream and the shape validators.
func ValidateFaultParams(mtbfEpochs, mttrEpochs float64) error {
	if !(mtbfEpochs >= 0) || math.IsInf(mtbfEpochs, 1) {
		return fmt.Errorf("fleet: MTBF must be a finite number >= 0 epochs (0 disables faults), got %g", mtbfEpochs)
	}
	if mtbfEpochs > 0 && (!(mttrEpochs > 0) || math.IsInf(mttrEpochs, 1)) {
		return fmt.Errorf("fleet: fault injection (MTBF %g) needs a finite MTTR > 0 epochs, got %g", mtbfEpochs, mttrEpochs)
	}
	return nil
}

// FaultStream materializes the per-machine crash/repair schedule:
// timeline[mi][e] is machine mi's state in epoch e. Each machine
// alternates exponential up intervals (mean mtbfEpochs) and exponential
// down intervals (mean mttrEpochs, rounded up so every outage costs at
// least one epoch), followed by ColdStartEpochs of cold start. All
// machines start up. Each machine draws from its own sim.RNG fork
// ("fleet/faults/m<i>"), so adding machines never perturbs the others'
// schedules and the timeline is a pure function of
// (machines, mtbf, mttr, epochs, seed).
func FaultStream(machines int, mtbfEpochs, mttrEpochs float64, epochs int, seed int64) ([][]MachineState, error) {
	if err := ValidateFaultParams(mtbfEpochs, mttrEpochs); err != nil {
		return nil, err
	}
	if machines < 1 || epochs < 1 {
		return nil, fmt.Errorf("fleet: fault stream needs machines >= 1 and epochs >= 1, got %d, %d", machines, epochs)
	}
	root := sim.NewRNG(seed)
	timeline := make([][]MachineState, machines)
	for mi := range timeline {
		row := make([]MachineState, epochs)
		timeline[mi] = row
		if mtbfEpochs == 0 {
			continue // faults disabled: all-up row
		}
		rng := root.Fork(fmt.Sprintf("fleet/faults/m%d", mi))
		e := 0
		for e < epochs {
			// Up interval (may round to 0: a machine can crash in the
			// very epoch it finished cold start).
			up := int(math.Floor(rng.Exponential(mtbfEpochs)))
			for i := 0; i < up && e < epochs; i++ {
				row[e] = MachineUp
				e++
			}
			// Down interval: at least one epoch.
			down := int(math.Ceil(rng.Exponential(mttrEpochs)))
			if down < 1 {
				down = 1
			}
			for i := 0; i < down && e < epochs; i++ {
				row[e] = MachineDown
				e++
			}
			for i := 0; i < ColdStartEpochs && e < epochs; i++ {
				row[e] = MachineCold
				e++
			}
		}
	}
	return timeline, nil
}

// ---------------------------------------------------------------------------
// Brown-out quality tiers

// QoSClearRTTMs is the brown-out controller's all-clear threshold: a
// machine measuring below this (pooled mean RTT) upgrades one degraded
// resident per epoch back toward full fidelity. It sits a hysteresis
// band below QoSMaxRTTMs (140 ms) so a machine hovering at the ceiling
// does not flap between degrading and upgrading every epoch; healthy
// machines in the committed fixtures measure below ~120 ms.
const QoSClearRTTMs = 120.0

// MaxDegradeTier is the deepest brown-out tier. Tiers scale the served
// resolution per side: tier 1 is 3/4 scale (~56% of the pixels), tier 2
// is 1/2 scale (25%). Resolution drives the demand model's frame-volume
// terms (encode, IPC, upload), so each tier sheds real predicted load.
const MaxDegradeTier = 2

// tierScale is the per-side resolution multiplier for each tier.
var tierScale = [MaxDegradeTier + 1]float64{1, 0.75, 0.5}

// DegradedProfile returns profile p served at the given brown-out tier:
// width and height scale by the tier's factor, and the per-frame upload
// volume scales with the pixel count. Tier 0 (and anything below)
// returns p unchanged, bit-identical; tiers above MaxDegradeTier clamp.
func DegradedProfile(p app.Profile, tier int) app.Profile {
	if tier <= 0 {
		return p
	}
	if tier > MaxDegradeTier {
		tier = MaxDegradeTier
	}
	s := tierScale[tier]
	w := int(math.Round(float64(p.Width) * s))
	h := int(math.Round(float64(p.Height) * s))
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	pixelRatio := float64(w*h) / float64(p.Width*p.Height)
	p.Width, p.Height = w, h
	p.UploadMBPerFrame *= pixelRatio
	return p
}

// ---------------------------------------------------------------------------
// Failover: bounded retry queue with epoch-granularity backoff

// RetryPolicy bounds session failover. The zero value disables retries
// (evictions and rejections drop, the historical behaviour).
type RetryPolicy struct {
	// MaxAttempts is how many re-admission attempts a session gets
	// after a rejection or eviction; <= 0 disables failover.
	MaxAttempts int
	// BackoffEpochs is the base backoff: attempt k matures
	// BackoffEpochs × 2^(k-1) epochs after the failure. Values <= 0
	// execute as 1 (retry next epoch).
	BackoffEpochs int
}

// retryEntry is one queued failover attempt.
type retryEntry struct {
	s *Session
	// attempt is the upcoming attempt number (1-based).
	attempt int
	// next is the first epoch the attempt may run in.
	next int
}

// retrySlot computes the queue entry for a session's next failover
// attempt, or ok=false when the session is out of attempts or would
// depart before the attempt matures (the tenant gave up either way).
func (c *Churn) retrySlot(s *Session, epoch, attempt int) (retryEntry, bool) {
	if c.Retry.MaxAttempts <= 0 || attempt > c.Retry.MaxAttempts {
		return retryEntry{}, false
	}
	backoff := c.Retry.BackoffEpochs
	if backoff < 1 {
		backoff = 1
	}
	shift := attempt - 1
	if shift > 16 {
		shift = 16 // cap the exponent; beyond this the wait exceeds any real horizon
	}
	next := epoch + backoff<<shift
	if next >= s.Departs {
		return retryEntry{}, false
	}
	return retryEntry{s: s, attempt: attempt, next: next}, true
}

// Offer is the arrival path, and with epoch 0 and no failover the
// one-shot fleet's admission too: it offers a session to the policy,
// and a placed session joins its machine's Placed list. A rejected
// session enters the retry queue (first attempt matures after the base
// backoff). With retries disabled (the zero RetryPolicy), or when the
// session would depart before its first attempt matures, it is dropped
// at once and counts as Lost. Sessions that later exhaust their
// attempts count as Lost too.
func (c *Churn) Offer(s *Session, epoch int) bool {
	if c.admit(s) {
		return true
	}
	c.requeue(s, epoch, 1)
	return false
}

// requeue enqueues failover attempt number attempt for s, or, when
// retrySlot refuses it, counts s as Lost and recycles it.
func (c *Churn) requeue(s *Session, epoch, attempt int) {
	if e, ok := c.retrySlot(s, epoch, attempt); ok {
		c.retryQ = append(c.retryQ, e)
		return
	}
	c.Lost++
	c.recycle(s)
}

// EvictAll force-releases every resident of machine mi (a crash),
// emptying its Placed list back to front exactly as departures would
// and enqueueing the evicted sessions for failover. Tiers reset: a
// re-admitted session starts back at full fidelity. Returns how many
// sessions were evicted.
func (c *Churn) EvictAll(mi, epoch int) int {
	m := c.Fleet.Machines[mi]
	n := len(m.Placed)
	for slot := n - 1; slot >= 0; slot-- {
		s := m.Placed[slot]
		m.release(slot)
		s.Variant = s.Variant.AtTier(0)
		c.Active--
		c.requeue(s, epoch, 1)
	}
	return n
}

// RetryDue runs every matured failover attempt for the epoch, in
// enqueue order. Re-admission goes through the same admit path as
// arrivals; a still-rejected session re-enqueues with doubled backoff
// until its attempts run out. Queued sessions whose departure epoch
// passed are silently dropped from the queue as Lost (the tenant left).
// Returns how many attempts ran and how many sessions were re-admitted.
func (c *Churn) RetryDue(epoch int) (retried, recovered int) {
	if len(c.retryQ) == 0 {
		return 0, 0
	}
	// The surviving entries refill the queue's own array from the front:
	// each entry read adds at most one, so none is overwritten unread.
	q := c.retryQ
	c.retryQ = c.retryQ[:0]
	for _, e := range q {
		switch {
		case e.s.Departs <= epoch:
			c.Lost++
			c.recycle(e.s)
		case e.next > epoch:
			c.retryQ = append(c.retryQ, e)
		default:
			retried++
			if c.admit(e.s) {
				recovered++
			} else {
				c.requeue(e.s, epoch, e.attempt+1)
			}
		}
	}
	return retried, recovered
}

// QueuedRetries reports how many sessions are waiting in the failover
// queue.
func (c *Churn) QueuedRetries() int { return len(c.retryQ) }

// ---------------------------------------------------------------------------
// Brown-out controller primitives

// DegradeOne pushes machine mi's heaviest degradable resident one tier
// down (ties toward the earlier slot, i.e. the lower session ID), and
// reports whether anyone was degraded. The heaviest tenant sheds the
// most demand per tier step — the point of a brown-out is maximum
// relief for minimum fidelity loss across the machine.
func (c *Churn) DegradeOne(mi int) bool {
	m := c.Fleet.Machines[mi]
	var best *Session
	for _, s := range m.Placed {
		if s.Variant.Tier >= MaxDegradeTier {
			continue
		}
		if best == nil || s.Variant.Demand > best.Variant.Demand {
			best = s
		}
	}
	if best == nil {
		return false
	}
	best.Variant = best.Variant.AtTier(best.Variant.Tier + 1)
	m.updateDemand()
	return true
}

// DegradeToFit brown-outs machine mi: residents degrade (heaviest
// first, one tier per step) until the machine's predicted demand fits
// its *un-overcommitted* capacity or nothing degradable remains. A
// measured QoS violation always costs at least one step — admission
// overcommits on purpose, so a violating machine may well predict
// under its overcommitted cap while drowning in interference; shedding
// toward nominal capacity is what relieves it. Returns the steps taken.
func (c *Churn) DegradeToFit(mi int) int {
	steps := 0
	m := c.Fleet.Machines[mi]
	for {
		if !c.DegradeOne(mi) {
			return steps
		}
		steps++
		if m.Demand <= m.Cores {
			return steps
		}
	}
}

// UpgradeOne restores machine mi's most-degraded resident one tier
// (ties toward the earlier slot) — but only when the machine holds the
// added demand without overcommit, so an upgrade can never push a
// recovering machine straight back over the ceiling. Reports whether
// anyone was upgraded.
func (c *Churn) UpgradeOne(mi int) bool {
	m := c.Fleet.Machines[mi]
	var best *Session
	for _, s := range m.Placed {
		if s.Variant.Tier > 0 && (best == nil || s.Variant.Tier > best.Variant.Tier) {
			best = s
		}
	}
	if best == nil {
		return false
	}
	restored := best.Variant.AtTier(best.Variant.Tier - 1)
	if !m.Fits(restored.Demand-best.Variant.Demand, 1) {
		return false
	}
	best.Variant = restored
	m.updateDemand()
	return true
}

// DegradedResidents counts machine mi's residents currently served
// below full fidelity.
func (c *Churn) DegradedResidents(mi int) int {
	n := 0
	for _, s := range c.Fleet.Machines[mi].Placed {
		if s.Variant.Tier > 0 {
			n++
		}
	}
	return n
}
