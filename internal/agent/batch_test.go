package agent

import (
	"fmt"
	"math"
	"testing"

	"pictor/internal/app"
	"pictor/internal/scene"
	"pictor/internal/sim"
)

// The batched inference contract: for every registered workload profile
// (the paper's six plus the later scenario families) and across batch
// sizes spanning sub-chunk, chunk-boundary and multi-chunk flushes,
// BatchModels must produce byte-for-byte the results of the per-client
// clone-per-session architecture it replaced — detection, recurrent
// state and action logits alike.
func TestBatchMatchesPerClientAllProfiles(t *testing.T) {
	profiles := app.Suite()
	if len(profiles) < 9 {
		t.Fatalf("registry holds %d profiles, want the paper six plus CAD/VV/CZ", len(profiles))
	}
	const rounds = 4
	for pi, prof := range profiles {
		for _, batch := range []int{1, flushChunk, flushChunk*2 + 3} {
			t.Run(fmt.Sprintf("%s/B%d", prof.Name, batch), func(t *testing.T) {
				src := NewModels(101 + int64(pi))
				bm := NewBatchModels(src)
				sessions := make([]*BatchSession, batch)
				solo := make([]*Models, batch)
				for i := range sessions {
					sessions[i] = bm.NewSession()
					solo[i] = src.Clone()
				}
				// Each session watches its own evolving scene, so the
				// batch mixes genuinely different rasters.
				scenes := make([]*scene.Scene, batch)
				for i := range scenes {
					scenes[i] = scene.New(prof.Dynamics, sim.NewRNG(int64(1000*pi+i)))
				}
				for round := 0; round < rounds; round++ {
					frames := make([]*scene.Frame, batch)
					for i, sc := range scenes {
						sc.Step(scene.Action(round % int(scene.NumActions)))
						frames[i] = sc.Render(int64(round), prof.Width, prof.Height)
					}
					for i, s := range sessions {
						s.SubmitFrame(frames[i].Pixels())
					}
					// The first demand flushes the whole queue, like the
					// earliest cv-latency continuation in the simulator.
					for i, s := range sessions {
						got := s.Detected()
						want := solo[i].Detect(frames[i].Pixels())
						for cell := range want {
							if got[cell] != want[cell] {
								t.Fatalf("round %d session %d cell %d: batch detected %v, per-client %v",
									round, i, cell, got[cell], want[cell])
							}
						}
						gotL := s.NextActionLogits(got)
						wantL := solo[i].NextActionLogits(want)
						if len(gotL) != len(wantL) {
							t.Fatalf("logit lengths %d vs %d", len(gotL), len(wantL))
						}
						for j := range wantL {
							if math.Float64bits(gotL[j]) != math.Float64bits(wantL[j]) {
								t.Fatalf("round %d session %d logit %d: batch %x (%g), per-client %x (%g)",
									round, i, j, math.Float64bits(gotL[j]), gotL[j],
									math.Float64bits(wantL[j]), wantL[j])
							}
						}
					}
				}
			})
		}
	}
}

// NextActionLogitsAll must equal row-by-row calls — same recurrent
// update, head run as one batched matmul.
func TestNextActionLogitsAllMatchesPerSession(t *testing.T) {
	prof := app.Suite()[0]
	src := NewModels(7)
	const batch = 5
	bmAll, bmOne := NewBatchModels(src), NewBatchModels(src)
	all := make([]*BatchSession, batch)
	one := make([]*BatchSession, batch)
	detecteds := make([][]scene.Type, batch)
	sc := scene.New(prof.Dynamics, sim.NewRNG(3))
	for i := range all {
		all[i] = bmAll.NewSession()
		one[i] = bmOne.NewSession()
		sc.Step(scene.ActForward)
		f := sc.Render(int64(i), prof.Width, prof.Height)
		all[i].SubmitFrame(f.Pixels())
		one[i].SubmitFrame(f.Pixels())
		detecteds[i] = append([]scene.Type(nil), all[i].Detected()...)
	}
	for round := 0; round < 3; round++ {
		got := bmAll.NextActionLogitsAll(all, detecteds)
		for i, s := range one {
			want := s.NextActionLogits(detecteds[i])
			for j := range want {
				gv := got.Data[i*got.Shape[1]+j]
				if math.Float64bits(gv) != math.Float64bits(want[j]) {
					t.Fatalf("round %d session %d logit %d: all-pass %g, per-session %g", round, i, j, gv, want[j])
				}
			}
		}
	}
}

// TestBatchFlushAllocatesNothing pins the batched client's scratch
// reuse: once warmed, a CNN flush over the whole batch and the batched
// LSTM step allocate nothing.
func TestBatchFlushAllocatesNothing(t *testing.T) {
	bm := NewBatchModels(NewModels(1))
	sessions := make([]*BatchSession, flushChunk+3)
	detecteds := make([][]scene.Type, len(sessions))
	for i := range sessions {
		sessions[i] = bm.NewSession()
	}
	px := benchFrame().Pixels()
	step := func() {
		for _, s := range sessions {
			s.SubmitFrame(px)
		}
		for i, s := range sessions {
			detecteds[i] = s.Detected()
		}
		bm.NextActionLogitsAll(sessions, detecteds)
	}
	step()
	if a := testing.AllocsPerRun(10, step); a != 0 {
		t.Fatalf("a warmed batch flush allocates %v objects, want 0", a)
	}
}
