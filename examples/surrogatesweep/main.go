// Surrogatesweep: churn a fleet far past what per-frame simulation can
// afford, by running most of it on the surrogate fidelity tier.
//
// The churn and faults demos simulate every session frame by frame —
// honest, but linear in sessions, which caps sweeps at thousands. This
// demo drives the same churn lifecycle through the epoch loop with
// fidelity tiers: machines [0, fidelity) run the full per-frame
// simulator, the rest of the fleet runs calibrated per-profile response
// curves (RTT, FPS and utilization as a function of machine load, with
// deterministic per-session jitter). Tens of thousands of offered
// sessions complete in seconds, while the sampled cohort stays
// bit-exact full simulation — the anchor the cheap tier is checked
// against (see TestGoldenFidelityTiers in internal/core).
package main

import (
	"flag"
	"fmt"
	"time"

	"pictor"
)

func main() {
	machines := flag.Int("machines", 500, "server machine count")
	cores := flag.String("cores", "8,4", "per-machine core classes, cycled")
	rate := flag.Float64("rate", 1000, "mean Poisson arrivals per epoch")
	duration := flag.Float64("duration", 2, "mean session length in epochs")
	epochs := flag.Int("epochs", 12, "churn horizon")
	fidelity := flag.Int("fidelity", 4, "machines [0, N) on full per-frame simulation; the rest run the surrogate tier")
	occupancy := flag.Bool("occupancy", false, "print the per-(machine, epoch) occupancy rows of the full-sim cohort")
	flag.Parse()

	cfg := pictor.DefaultExperimentConfig()
	cfg.WarmupSeconds, cfg.Seconds = 1, 5

	shape := pictor.FleetShape{
		Machines:          *machines,
		Policy:            pictor.PolicyRoundRobin,
		Mix:               pictor.MixHeavy,
		CoreClasses:       *cores,
		Epochs:            *epochs,
		ArrivalRate:       *rate,
		MeanSessionEpochs: *duration,
		Migrate:           true,
		SurrogateTail:     true,
		FidelitySampled:   *fidelity,
		OccupancyDetail:   *occupancy,
	}

	fmt.Printf("sweeping %d machines × %d epochs at %g arrivals/epoch — full simulation on %d machine(s), surrogate tier on %d...\n\n",
		*machines, *epochs, *rate, *fidelity, *machines-*fidelity)
	start := time.Now()
	r := pictor.RunFleetChurn(shape, cfg)
	elapsed := time.Since(start).Round(time.Millisecond)

	fmt.Printf("offered %d sessions (%d rejected, %d migrations), mean active %.0f, availability %.1f%%, mean fleet power %.0f kW\n",
		r.Arrivals, r.Rejected, r.Migrations, r.MeanActive, 100*r.Availability, r.MeanPowerWatts/1000)
	fmt.Printf("done in %s — the same horizon on full per-frame simulation is hours, not seconds\n", elapsed)

	if *occupancy {
		// The cohort rows are real simulation; surrogate rows are
		// predictions. The tier column says which is which.
		fmt.Printf("\nper-(machine, epoch) occupancy (first %d machines shown):\n", cohortShown)
		trimmed := r
		trimmed.Epochs = nil
		for _, e := range r.Epochs {
			if len(e.Occupancy) > cohortShown {
				e.Occupancy = e.Occupancy[:cohortShown]
			}
			trimmed.Epochs = append(trimmed.Epochs, e)
		}
		fmt.Print(pictor.OccupancyTable(trimmed))
	}
}

// cohortShown caps the printed occupancy rows: a 500-machine table is
// a file, not a terminal demo.
const cohortShown = 8
