package core

import (
	"pictor/internal/exp"
	"pictor/internal/sim"
)

// TrialResult is the outcome of executing one (trial, repetition)
// unit: every instance's measurements plus machine-level readings.
type TrialResult struct {
	// Rep and Seed identify the execution unit.
	Rep  int
	Seed int64
	// Results holds one entry per instance, in spec order.
	Results []InstanceResult
	// PowerWatts is modelled wall power over the measurement window.
	PowerWatts float64
	// Cluster is the executed system, retained only when the trial
	// sets KeepSystem (e.g. the Chen et al. stage-sum baseline reads
	// the human run's raw trace). Nil otherwise, so grids release each
	// simulated machine as soon as its trial finishes. Excluded from
	// JSON: a simulated machine is not a measurement.
	Cluster *Cluster `json:"-"`
	// Fleet holds the multi-server outcome when the trial has a
	// one-shot fleet shape; Results is empty in that case (instances
	// live under Fleet.Machines).
	Fleet *FleetResult
	// Churn holds the epoch-based outcome when the trial's fleet shape
	// churns (Epochs > 0); Results and Fleet are empty in that case.
	Churn *ChurnResult
}

// ExecuteTrial builds a cluster for the trial, runs it, and snapshots
// every instance. It is the exp.RunChecked executor: a pure function of
// (Trial, Unit) — each call owns a private kernel and RNG seeded from
// the unit, so trials can run on any worker in any order and still
// produce byte-identical results.
func ExecuteTrial(t exp.Trial, u exp.Unit) TrialResult {
	if t.Fleet != nil {
		if t.Fleet.Churn() {
			cr := executeFleetChurn(t, u)
			return TrialResult{Rep: u.Rep, Seed: u.Seed, Churn: cr, PowerWatts: cr.MeanPowerWatts}
		}
		fr := executeFleet(t, u)
		return TrialResult{Rep: u.Rep, Seed: u.Seed, Fleet: fr, PowerWatts: fr.TotalPowerWatts}
	}
	cl := NewCluster(Options{Seed: u.Seed})
	for _, spec := range t.Instances {
		cl.AddInstance(instanceConfigOf(spec))
	}
	cl.Run(sim.DurationOfSeconds(t.Warmup), sim.DurationOfSeconds(t.Measure))
	out := TrialResult{
		Rep:     u.Rep,
		Seed:    u.Seed,
		Results: make([]InstanceResult, len(cl.Instances)),
	}
	if t.KeepSystem {
		out.Cluster = cl
	}
	for i, inst := range cl.Instances {
		out.Results[i] = inst.Result()
	}
	out.PowerWatts = cl.TotalPowerWatts()
	return out
}

// instanceConfigOf lowers a declarative instance spec onto the
// assembly-layer InstanceConfig.
func instanceConfigOf(spec exp.InstanceSpec) InstanceConfig {
	icfg := NewInstanceConfig(spec.Profile, driverFactoryOf(spec))
	icfg.Tracing = !spec.TracingOff
	icfg.Mode = spec.Mode
	icfg.Interposer = exp.CanonicalInterposer(spec.Interposer)
	if spec.Containerized {
		icfg.Containerized = true
		icfg.Container = dockerOverheads()
	}
	return icfg
}

// driverFactoryOf maps a declarative driver kind onto a concrete
// factory. Model-backed drivers train the benchmark's CNN+LSTM on
// first use (cached per process; the factories clone per client, so
// concurrent trials never share mutable networks).
func driverFactoryOf(spec exp.InstanceSpec) DriverFactory {
	switch spec.Driver {
	case exp.DriverHuman:
		return HumanDriver()
	case exp.DriverIC:
		models, _, _ := TrainedModels(spec.Profile)
		return ICDriver(models)
	case exp.DriverDeskBench:
		_, rec, gap := TrainedModels(spec.Profile)
		return DeskBenchDriver(rec, gap, 0)
	case exp.DriverSlowMotion:
		models, _, _ := TrainedModels(spec.Profile)
		return SlowMotionDriver(models)
	}
	return nil
}
