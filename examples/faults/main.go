// Faults: inject machine crashes into a churning fleet and show what
// session failover (retry with exponential backoff) and brown-out QoS
// tiers (degrade resolution before evicting) buy over dropping every
// victim on the floor.
//
// Machines crash on a deterministic schedule drawn from MTBF/MTTR
// (exponential up- and downtime, plus a cold-start epoch after repair);
// a crash evicts every resident session. The comparison runs the same
// tenant population, the same execution noise and the SAME failure
// schedule three ways: a healthy fleet (the ceiling), drop-on-failure
// (the floor — evicted and rejected sessions are lost), and the
// resilient posture (victims re-queue with capped retries and doubling
// backoff, and overloaded machines shed demand by serving lower
// resolution tiers instead of evicting). The availability column —
// QoS-compliant session-epochs over offered session-epochs — is the
// paper-style punchline: retry+degrade recovers a chunk of the
// availability the crashes destroyed, for free.
package main

import (
	"flag"
	"fmt"
	"time"

	"pictor"
)

func main() {
	machines := flag.Int("machines", 5, "server machine count")
	cores := flag.String("cores", "8,8,4", "per-machine core classes, cycled")
	rate := flag.Float64("rate", 3, "mean Poisson arrivals per epoch")
	duration := flag.Float64("duration", 4, "mean session length in epochs")
	epochs := flag.Int("epochs", 8, "churn horizon")
	mix := flag.String("mix", pictor.MixHeavy, "arrival mix (suite, shuffled, heavy)")
	policy := flag.String("policy", pictor.PolicyLeastDemand, "placement policy")
	mtbf := flag.Float64("mtbf", 5, "mean epochs between crashes per machine")
	mttr := flag.Float64("mttr", 1, "mean epochs to repair a crashed machine")
	retries := flag.Int("retries", 3, "failover retry attempts per victim session")
	backoff := flag.Int("backoff", 1, "base retry backoff in epochs (doubles per attempt)")
	degrade := flag.Bool("degrade", true, "enable brown-out QoS tiers")
	seconds := flag.Float64("seconds", 5, "measurement window per epoch (simulated seconds)")
	parallel := flag.Int("parallel", 0, "runner workers (0 = all cores)")
	flag.Parse()

	static := false // isolate the recovery mechanisms: no migration controller
	spec := pictor.ExperimentSpec{
		Kind:        "faults",
		Seconds:     *seconds,
		Warmup:      1,
		Machines:    *machines,
		Policy:      *policy,
		Mix:         *mix,
		CoreClasses: *cores,
		Epochs:      *epochs,
		Rate:        *rate,
		Duration:    *duration,
		Migrate:     &static,
		MTBF:        *mtbf,
		MTTR:        *mttr,
		Retries:     *retries,
		Backoff:     *backoff,
		Degrade:     *degrade,
	}

	fmt.Printf("crashing %d machines (MTBF %g, MTTR %g epochs) under churn for %d epochs (%s mix, %s placement, rate %g)...\n\n",
		*machines, *mtbf, *mttr, *epochs, *mix, *policy, *rate)
	start := time.Now()
	out, err := pictor.RunSpec(spec, *parallel)
	if err != nil {
		fmt.Println(err)
		return
	}
	rs := out.Churn
	healthy, drop, resilient := rs[0], rs[1], rs[2]
	fmt.Print(pictor.ChurnComparisonTable(rs))
	fmt.Printf("\ndone in %s\n", time.Since(start).Round(time.Millisecond))

	fmt.Printf("\nper-epoch view of the resilient run:\n")
	fmt.Print(pictor.ChurnTable(resilient))

	lostToCrashes := healthy.Availability - drop.Availability
	recovered := resilient.Availability - drop.Availability
	switch {
	case resilient.Availability > drop.Availability:
		fmt.Printf("\ncrashes cost %.1f points of availability (%.1f%% → %.1f%%); retry+degrade clawed back %.1f points (→ %.1f%%), recovering %d session(s) and serving %d degraded session-epoch(s) instead of evicting\n",
			100*lostToCrashes, 100*healthy.Availability, 100*drop.Availability,
			100*recovered, 100*resilient.Availability,
			resilient.Recovered, resilient.DegradedSessionEpochs)
	case drop.Crashes == 0:
		fmt.Printf("\nno machine crashed inside the horizon — raise -mtbf pressure (lower the value) or -epochs\n")
	default:
		fmt.Printf("\nretry+degrade did not improve availability (%.1f%% vs %.1f%%) — the fleet is likely saturated, so recovered sessions re-create the QoS pressure they fled; add headroom (-machines) or lower -rate\n",
			100*resilient.Availability, 100*drop.Availability)
	}
}
