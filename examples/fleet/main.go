// Fleet: consolidate a stream of instance requests across a
// multi-server fleet and compare placement policies.
//
// The paper stops at one server (§5.2: how many instances a machine
// sustains before interactive RTT degrades); this demo asks the next
// question — where to place workloads across N machines. It admits the
// same request stream under four policies (round-robin, least-loaded by
// count, least-loaded by predicted CPU demand, and profile-affinity
// bin-packing informed by measured pair interference) and prints the
// density / QoS / power tradeoff each one picks.
package main

import (
	"flag"
	"fmt"
	"time"

	"pictor"
)

func main() {
	machines := flag.Int("machines", 4, "server machine count")
	requests := flag.Int("requests", 12, "instance-request stream length")
	mix := flag.String("mix", pictor.MixHeavy, "arrival mix (suite, shuffled, heavy)")
	seconds := flag.Float64("seconds", 20, "measurement window (simulated seconds)")
	parallel := flag.Int("parallel", 0, "runner workers (0 = all cores)")
	flag.Parse()

	spec := pictor.ExperimentSpec{
		Kind:     "fleet",
		Seconds:  *seconds,
		Machines: *machines,
		Mix:      *mix,
		Requests: *requests,
	}

	fmt.Printf("consolidating %d requests (%s mix) onto %d machines, all %d policies...\n\n",
		*requests, *mix, *machines, len(pictor.FleetPolicyNames()))
	start := time.Now()
	out, err := pictor.RunSpec(spec, *parallel)
	if err != nil {
		fmt.Println(err)
		return
	}
	rs := out.Fleet
	fmt.Print(pictor.FleetComparisonTable(rs))
	fmt.Printf("\ndone in %s\n\n", time.Since(start).Round(time.Millisecond))

	// Show where the bin-packer actually put things.
	for _, r := range rs {
		if r.Policy != pictor.PolicyBinPack {
			continue
		}
		fmt.Println("binpack placement:")
		for _, m := range r.Machines {
			fmt.Printf("  machine %d (predicted %.1f cores):", m.Machine, m.PredictedDemand)
			if len(m.Results) == 0 {
				fmt.Print("  idle")
			}
			for _, ir := range m.Results {
				fmt.Printf("  %s %.0ffps", ir.Benchmark, ir.ClientFPS)
			}
			fmt.Println()
		}
	}
}
