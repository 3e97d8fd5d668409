package core

import (
	"testing"

	"pictor/internal/app"
	"pictor/internal/exp"
	"pictor/internal/fleet"
)

// benchEpoch keeps BenchmarkSurrogateEpoch's result live.
var benchEpoch MachineEpoch

// BenchmarkSurrogateEpoch is the surrogate layer of the diurnal
// million-session sweep in isolation: one surrogateEngine.AdvanceEpoch
// per op, cycling over a 10k-machine (8,4) fleet that round-robin churn
// at the sweep's peak (heavy mix, 20k arrivals per epoch, mean stay one
// epoch) has filled to saturation. Calibration and the fill run before
// the timer starts; the engine reuses its scratch, so an epoch
// allocates nothing.
func BenchmarkSurrogateEpoch(b *testing.B) {
	const machines, warm = 10_000, 6
	suite := app.PaperSuite()
	src, err := fleet.NewChurnSource(fleet.ArrivalConfig{
		Suite: suite, Mix: fleet.MixHeavy, Rate: 20_000, MeanSessionEpochs: 1, Epochs: warm, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	f := fleet.NewHetero(machines, []float64{8, 4})
	c := fleet.NewChurn(f, &fleet.RoundRobin{})
	c.Pool = src
	for e := 0; e < warm; e++ {
		c.DepartDue(e)
		for _, s := range src.Next(e) {
			c.Offer(s, e)
		}
	}
	p := &churnPortal{t: exp.Trial{ID: "bench/surrogate-epoch", Measure: 5}, c: c, f: f, streamBase: 1}
	se := newSurrogateEngine(p, suite, src.Catalog())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEpoch = se.AdvanceEpoch(warm, i%machines)
	}
}

// BenchmarkFullClusterEpoch is the full-fidelity layer of churn-full in
// isolation: one fullEngine.AdvanceEpoch per op, on an 8-core machine
// holding the first two sessions a heavy-mix arrival stream admits, at
// churn-full's epoch shape (Warmup 1, Measure 5). Every op builds and
// runs the same cluster, so frames/op is that cluster's simulated frame
// count, warm-up included.
func BenchmarkFullClusterEpoch(b *testing.B) {
	src, err := fleet.NewChurnSource(fleet.ArrivalConfig{
		Suite: app.PaperSuite(), Mix: fleet.MixHeavy, Rate: 8, MeanSessionEpochs: 4, Epochs: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	f := fleet.NewHetero(1, []float64{8})
	c := fleet.NewChurn(f, &fleet.RoundRobin{})
	c.Pool = src
	for _, s := range src.Next(0) {
		if len(f.Machines[0].Placed) == 2 {
			break
		}
		c.Offer(s, 0)
	}
	if n := len(f.Machines[0].Placed); n != 2 {
		b.Fatalf("machine holds %d residents, want 2", n)
	}
	p := &churnPortal{t: exp.Trial{ID: "bench/full-cluster-epoch", Warmup: 1, Measure: 5}, f: f, streamBase: 1}
	fe := &fullEngine{p: p}
	// The op's cluster, run once untimed to count its frames.
	var frames int64
	for _, inst := range runPlaced(p.t, f.Machines[0], machineEpochKey.Int(0).Str("/e").Int(0).Seed(p.streamBase, p.u.Rep)).Instances {
		frames += inst.App.Frames()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEpoch = fe.AdvanceEpoch(0, 0)
	}
	b.ReportMetric(float64(frames), "frames/op")
}
