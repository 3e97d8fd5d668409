package core

import (
	"testing"

	"pictor/internal/app"
	"pictor/internal/sim"
	"pictor/internal/vgl"
)

// TestSteadyStateFrameAllocatesNothing: on a warmed-up machine running
// the six paper profiles undriven (no inputs, so no tag records), every
// further simulated frame allocates nothing, from the application's
// logic pass to the client proxy, under both the baseline and the
// optimized interposer. Four simulated seconds are one run of
// testing.AllocsPerRun (about 260 frames, each instance oversubscribed
// at 8–16 FPS); a 12 s warm-up fills every free list and grows the
// kernel's queue to its working depth first.
func TestSteadyStateFrameAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts vgl.Options
	}{
		{"sync-copy", vgl.DefaultOptions()},
		{"async-copy", vgl.Optimized()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(Options{Seed: 1})
			for _, prof := range app.PaperSuite() {
				cfg := NewInstanceConfig(prof, nil)
				cfg.Interposer = tc.opts
				c.AddInstance(cfg)
			}
			// Frame-path samples sized for the whole test, as
			// Cluster.Run sizes them for its longer window.
			for _, inst := range c.Instances {
				inst.Tracer.SizeHint(64 * 20)
				inst.start()
			}
			second := sim.DurationOfSeconds(1)
			c.K.RunUntil(c.K.Now().Add(12 * second))
			frames := func() (n int64) {
				for _, inst := range c.Instances {
					n += inst.App.Frames()
				}
				return n
			}
			before := frames()
			allocs := testing.AllocsPerRun(1, func() { c.K.RunUntil(c.K.Now().Add(4 * second)) })
			perRun := (frames() - before) / 2 // AllocsPerRun runs once more to warm up
			if perRun == 0 {
				t.Fatal("no frames simulated")
			}
			if allocs != 0 {
				t.Fatalf("four simulated seconds (%d frames) made %v allocations, %.2f per frame; want 0",
					perRun, allocs, allocs/float64(perRun))
			}
		})
	}
}
