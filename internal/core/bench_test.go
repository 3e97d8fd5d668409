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
