// Command pictor-sim runs one benchmark (or the whole suite) on the
// simulated cloud rendering system and prints the single-instance
// characterization: FPS, RTT, stage breakdown, utilization, bandwidth,
// and PMU readings.
//
// Usage:
//
//	pictor-sim [-bench STK] [-n 2] [-seconds 60] [-optimized] [-container] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pictor/internal/app"
	"pictor/internal/container"
	"pictor/internal/core"
	"pictor/internal/sim"
	"pictor/internal/trace"
	"pictor/internal/vgl"
)

func main() {
	bench := flag.String("bench", "", fmt.Sprintf("benchmark to run (%s); empty = every registered profile", strings.Join(app.Names(), ", ")))
	n := flag.Int("n", 1, "co-located instances of the benchmark")
	seconds := flag.Float64("seconds", 60, "measured session length (simulated seconds)")
	optimized := flag.Bool("optimized", false, "enable the §6 frame-copy optimizations")
	containerized := flag.Bool("container", false, "run inside a Docker-like container")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	profiles := app.Suite()
	if *bench != "" {
		p, ok := app.ByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q (registered: %s)\n", *bench, strings.Join(app.Names(), ", "))
			os.Exit(2)
		}
		profiles = []app.Profile{p}
	}

	for _, prof := range profiles {
		runOne(prof, *n, *seconds, *optimized, *containerized, *seed)
	}
}

func runOne(prof app.Profile, n int, seconds float64, optimized, containerized bool, seed int64) {
	cl := core.NewCluster(core.Options{Seed: seed})
	for i := 0; i < n; i++ {
		cfg := core.NewInstanceConfig(prof, core.HumanDriver())
		if optimized {
			cfg.Interposer = vgl.Optimized()
		}
		if containerized {
			cfg.Containerized = true
			cfg.Container = container.Docker()
		}
		cl.AddInstance(cfg)
	}
	cl.Run(sim.DurationOfSeconds(3), sim.DurationOfSeconds(seconds))

	r := cl.Instances[0].Result()
	fmt.Printf("=== %s ×%d  (%.0fs session, optimized=%v, container=%v)\n",
		prof, n, seconds, optimized, containerized)
	fmt.Printf("  server FPS %6.1f   client FPS %6.1f   dropped %d\n",
		r.ServerFPS, r.ClientFPS, r.Dropped)
	fmt.Printf("  RTT mean %6.1fms  [p1 %.1f  p25 %.1f  p75 %.1f  p99 %.1f]  (n=%d)\n",
		r.RTT.Mean, r.RTT.P1, r.RTT.P25, r.RTT.P75, r.RTT.P99, r.RTT.N)
	fmt.Printf("  server time %.1fms   network time %.1fms\n", r.ServerTimeMs(), r.NetworkTimeMs())
	fmt.Printf("  stages (ms): ")
	for s := range trace.NumStages {
		fmt.Printf("%s %.1f  ", s, r.Stages[s].Mean)
	}
	fmt.Println()
	fmt.Printf("  app CPU %5.0f%%   VNC CPU %5.0f%%   GPU %4.1f%%   mem %4.0fMB   gpuMem %3.0fMB\n",
		r.AppCPUUtil, r.VNCCPUUtil, r.GPUUtil, r.FootprintMB, r.GPUMemoryMB)
	fmt.Printf("  L3 miss %.0f%%   GPU L2 %s   tex %s   topdown BE %.0f%% (IPC %.2f)\n",
		r.L3MissRate*100, pct(r.GPUL2Miss), pct(r.GPUTexMiss),
		r.CPUTopDown.BackEnd*100, r.CPUTopDown.IPC)
	fmt.Printf("  net %4.0f Mbps down / %4.1f Mbps up    PCIe %6.1f MB/s from-GPU / %6.1f MB/s to-GPU\n",
		r.NetDownMbps, r.NetUpMbps, r.PCIeFromGPU, r.PCIeToGPU)
	fmt.Printf("  power %.0fW total (%.0fW per instance)\n",
		cl.TotalPowerWatts(), cl.TotalPowerWatts()/float64(n))
	fmt.Println()
}

func pct(v float64) string {
	if v < 0 {
		return "N/A"
	}
	return fmt.Sprintf("%.0f%%", v*100)
}
