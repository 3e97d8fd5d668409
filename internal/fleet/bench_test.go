package fleet

import (
	"math"
	"testing"
)

// BenchmarkFaultChurnBookkeeping measures the pure fault-tolerance
// bookkeeping path — departures, crash evictions, retry-queue drains,
// offers and brown-out pressure over a full churn horizon — with no
// machine execution attached. This is the per-epoch overhead the fault
// subsystem adds to every churn trial, so it is pinned in benchguard.
func BenchmarkFaultChurnBookkeeping(b *testing.B) {
	const epochs = 16
	src, err := NewChurnSource(ArrivalConfig{Mix: MixHeavy, Rate: 3, MeanSessionEpochs: 2.5, Epochs: epochs, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// The schedule is drawn once and replayed every iteration.
	stream := make([][]*Session, epochs)
	for e := range stream {
		stream[e] = append([]*Session(nil), src.Next(e)...)
	}
	timeline, err := FaultStream(4, 3.0, 1.0, epochs, 1)
	if err != nil {
		b.Fatal(err)
	}
	pol, _ := NewPolicy(PolicyLeastDemand, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Sessions are reused across iterations: reset the mutable
		// lifecycle state so every iteration does identical work.
		for _, arr := range stream {
			for _, s := range arr {
				s.Machine, s.Variant = -1, s.Variant.AtTier(0)
			}
		}
		f := NewHetero(4, []float64{8, 4})
		c := NewChurn(f, pol)
		c.Retry = RetryPolicy{MaxAttempts: 3, BackoffEpochs: 1}
		for e := 0; e < epochs; e++ {
			c.DepartDue(e)
			for mi, m := range f.Machines {
				st := timeline[mi][e]
				if st == MachineDown && m.State != MachineDown {
					m.State = st
					c.EvictAll(mi, e)
					continue
				}
				m.State = st
			}
			c.RetryDue(e)
			for _, s := range stream[e] {
				c.Offer(s, e)
			}
			for mi := range f.Machines {
				if c.DegradeToFit(mi) == 0 {
					c.UpgradeOne(mi)
				}
			}
		}
	}
}

// BenchmarkArrivalSource is the arrival layer of the diurnal
// million-session sweep in isolation: a ChurnSource at the sweep's peak
// (heavy mix, 20k arrivals per epoch, mean stay one epoch) pulling
// Next epoch after epoch, with every session recycled as soon as it
// arrives, so past the first epoch the free list serves every arrival.
// One op is one session: ns/op and B/op are per session.
func BenchmarkArrivalSource(b *testing.B) {
	src, err := NewChurnSource(ArrivalConfig{
		Mix: MixHeavy, Rate: 20_000, MeanSessionEpochs: 1, Epochs: math.MaxInt, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n, e := 0, 0; n < b.N; e++ {
		batch := src.Next(e)
		for _, s := range batch {
			src.Recycle(s)
		}
		n += len(batch)
	}
}

// BenchmarkPlacementSaturated is the placement layer of the diurnal
// million-session sweep in isolation: one offer (ns/op) to a
// 10k-machine (8,4) fleet held at the sweep's peak of 20k heavy-mix
// arrivals per epoch, with no execution attached. Each placed offer is
// released again at once, so every iteration sees the same saturated
// fleet; rejects/offer is the share of offers nothing could hold.
// Bin-packing scores with benchTable, so its interference path runs.
func BenchmarkPlacementSaturated(b *testing.B) {
	for _, policy := range PolicyNames() {
		b.Run(policy, func(b *testing.B) {
			f, offers := saturatedFleet(b)
			pol, err := NewPolicy(policy, benchTable())
			if err != nil {
				b.Fatal(err)
			}
			rejects := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mi := f.placeOne(offers[i%len(offers)], pol)
				if mi < 0 {
					rejects++
					continue
				}
				m := f.Machines[mi]
				m.release(len(m.Placed) - 1)
			}
			b.ReportMetric(float64(rejects)/float64(b.N), "rejects/offer")
		})
	}
}

// saturatedFleet runs round-robin churn at the diurnal sweep's peak
// rate for a few epochs, stopping just after one epoch's admissions,
// and returns the fleet with the next epoch's arrivals to offer: the
// point in a peak epoch where late arrivals find the fleet full.
func saturatedFleet(b *testing.B) (*Fleet, []*Variant) {
	const (
		machines = 10_000
		peak     = 20_000
		warm     = 6
	)
	src, err := NewChurnSource(ArrivalConfig{
		Mix: MixHeavy, Rate: peak, MeanSessionEpochs: 1, Epochs: warm + 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	f := NewHetero(machines, []float64{8, 4})
	c := NewChurn(f, &RoundRobin{})
	for e := 0; e < warm; e++ {
		c.DepartDue(e)
		for _, s := range src.Next(e) {
			c.Offer(s, e)
		}
	}
	var offers []*Variant
	for _, s := range src.Next(warm) {
		offers = append(offers, s.Variant)
	}
	return f, offers
}

// benchTable is a fixed interference table over the paper's six: the
// co-location penalties the §5.3 pair experiment measures
// (core.PairInterference), rounded to two places.
func benchTable() *Interference {
	it := NewInterference()
	for _, p := range []struct {
		a, b  string
		score float64
	}{
		{"STK", "STK", 0.15}, {"STK", "0AD", 0.09}, {"STK", "RE", 0.09}, {"STK", "D2", 0.19}, {"STK", "IM", 0.11}, {"STK", "ITP", 0.13},
		{"0AD", "0AD", 0.02}, {"0AD", "RE", 0.04}, {"0AD", "D2", 0.12}, {"0AD", "IM", 0.04}, {"0AD", "ITP", 0.10},
		{"RE", "RE", 0.05}, {"RE", "D2", 0.10}, {"RE", "IM", 0.06}, {"RE", "ITP", 0.07},
		{"D2", "D2", 0.24}, {"D2", "IM", 0.16}, {"D2", "ITP", 0.19},
		{"IM", "IM", 0.20}, {"IM", "ITP", 0.11},
		{"ITP", "ITP", 0.12},
	} {
		it.Set(p.a, p.b, p.score)
	}
	return it
}
