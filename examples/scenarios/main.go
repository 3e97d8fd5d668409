// Scenarios: sweep the full nine-profile workload registry — the
// paper's Table-2 six plus the extended CAD, VV and CZ families —
// through a multi-server fleet under every placement policy.
//
// The paper's suite is fixed at six games; the registry turns "add a
// workload" into a ~60-line registration. This demo shows why that
// matters for placement: CloudCAD's huge-footprint/low-motion profile,
// VoluPlay's codec-hostile bandwidth appetite and CasualZen's
// consolidation-friendly lightness stress axes none of the six games
// do, and the policy comparison shifts once they join the mix.
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
	mix := flag.String("mix", pictor.MixSuite, "arrival mix (suite, shuffled, heavy)")
	profiles := flag.String("profiles", "all", "workload set: \"all\", \"\" for the paper six, or names like STK,CAD,VV")
	seconds := flag.Float64("seconds", 20, "measurement window (simulated seconds)")
	parallel := flag.Int("parallel", 0, "runner workers (0 = all cores)")
	flag.Parse()

	suite, err := pictor.ResolveProfiles(*profiles)
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Printf("workload registry (%d profiles active of %d registered):\n",
		len(suite), len(pictor.ProfileNames()))
	for _, p := range suite {
		fmt.Printf("  %-4s %-14s %-18s %4dx%-4d  footprint %4.0f MB  heavy-weight %d\n",
			p.Name, p.FullName, p.Genre, p.Width, p.Height, p.Mem.FootprintMB, p.HeavyWeight)
	}

	spec := pictor.ExperimentSpec{
		Kind:     "fleet",
		Profiles: *profiles,
		Seconds:  *seconds,
		Machines: *machines,
		Mix:      *mix,
		Requests: *requests,
	}

	fmt.Printf("\nconsolidating %d requests (%s mix) onto %d machines, all %d policies...\n\n",
		*requests, *mix, *machines, len(pictor.FleetPolicyNames()))
	start := time.Now()
	out, err := pictor.RunSpec(spec, *parallel)
	if err != nil {
		fmt.Println(err)
		return
	}
	rs := out.Fleet
	fmt.Print(pictor.FleetComparisonTable(rs))
	fmt.Printf("\ndone in %s\n", time.Since(start).Round(time.Millisecond))

	// Show how the bin-packer mixes the new families with the paper's
	// six — CZ fills gaps next to heavyweights, CAD gets room.
	for _, r := range rs {
		if r.Policy != pictor.PolicyBinPack {
			continue
		}
		fmt.Println("\nbinpack placement:")
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
