// Churn: drive a fleet through tenant churn — Poisson arrivals,
// exponential session lengths, departures — and show what RTT-driven
// migration buys over static placement.
//
// The fleet demo places a fixed request stream once and never looks
// back; real fleets are never that lucky. Here tenants arrive and leave
// continuously, and a blind round-robin placer sooner or later
// co-locates heavyweights (the heavy mix is full of Dota2s and
// SuperTuxKarts) on one machine while another idles. Static placement
// pays that QoS bill every epoch until the tenants leave; the migration
// controller reads each machine's measured mean RTT after every epoch
// and re-places a session off any machine past the QoS ceiling onto the
// coolest machine with genuine (un-overcommitted) headroom. Both runs
// churn the identical tenant population, so the delta is the
// controller's doing.
package main

import (
	"flag"
	"fmt"
	"time"

	"pictor"
)

func main() {
	machines := flag.Int("machines", 4, "server machine count")
	cores := flag.String("cores", "", "per-machine core classes, cycled (e.g. 8,4); empty = all 8")
	rate := flag.Float64("rate", 1.6, "mean Poisson arrivals per epoch")
	duration := flag.Float64("duration", 5, "mean session length in epochs")
	epochs := flag.Int("epochs", 10, "churn horizon")
	mix := flag.String("mix", pictor.MixHeavy, "arrival mix (suite, shuffled, heavy)")
	policy := flag.String("policy", pictor.PolicyRoundRobin, "placement policy")
	seconds := flag.Float64("seconds", 10, "measurement window per epoch (simulated seconds)")
	parallel := flag.Int("parallel", 0, "runner workers (0 = all cores)")
	flag.Parse()

	spec := pictor.ExperimentSpec{
		Kind:        "churn",
		Seconds:     *seconds,
		Machines:    *machines,
		Policy:      *policy,
		Mix:         *mix,
		CoreClasses: *cores,
		Epochs:      *epochs,
		Rate:        *rate,
		Duration:    *duration,
	}

	fmt.Printf("churning %d machines for %d epochs (%s mix, %s placement, rate %g, mean session %g epochs)...\n\n",
		*machines, *epochs, *mix, *policy, *rate, *duration)
	start := time.Now()
	out, err := pictor.RunSpec(spec, *parallel)
	if err != nil {
		fmt.Println(err)
		return
	}
	rs := out.Churn
	static, migrated := rs[0], rs[1]
	fmt.Print(pictor.ChurnComparisonTable(rs))
	fmt.Printf("\ndone in %s\n", time.Since(start).Round(time.Millisecond))

	fmt.Printf("\nadmission under churn: %d rejected, %d retried, %d recovered, %d lost (migrate run)\n",
		migrated.Rejected, migrated.Retried, migrated.Recovered, migrated.Lost)

	fmt.Printf("\nper-epoch view with migration enabled:\n")
	fmt.Print(pictor.ChurnTable(migrated))

	switch {
	case migrated.QoSViolations < static.QoSViolations:
		fmt.Printf("\nmigration cut QoS violations %d → %d (%d migration(s)); mean RTT %.1f → %.1f ms\n",
			static.QoSViolations, migrated.QoSViolations, migrated.Migrations,
			static.RTT.Mean, migrated.RTT.Mean)
	case migrated.Migrations == 0:
		fmt.Printf("\nno machine crossed the QoS RTT ceiling for long enough to migrate — raise -rate or -duration for more pressure\n")
	default:
		fmt.Printf("\nmigration moved %d session(s) without changing the QoS count (%d) — the fleet was either healthy or saturated\n",
			migrated.Migrations, migrated.QoSViolations)
	}
}
