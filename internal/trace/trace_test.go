package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"

	"pictor/internal/sim"
	"pictor/internal/stats"
)

func TestTagAllocationSequential(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k)
	if a, b := tr.NextTag(), tr.NextTag(); a == 0 || b != a+1 {
		t.Fatalf("tags not sequential: %d, %d", a, b)
	}
}

func TestDisabledTracerIsFree(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k)
	tr.SetEnabled(false)
	if tr.NextTag() != 0 {
		t.Fatal("disabled tracer handed out a tag")
	}
	if tr.HookCost() != 0 {
		t.Fatal("disabled tracer charges hook cost")
	}
	tr.RecordHook(Hook1, 5)
	tr.AddStage(StageAL, sim.Millisecond, 5)
	if len(tr.Records()) != 0 || tr.StageSample(StageAL).N() != 0 {
		t.Fatal("disabled tracer recorded data")
	}
	// Nothing will be recorded, so nothing is pre-sized: the overhead
	// experiment runs one untraced tracer per instance.
	hint := 0
	if a := testing.AllocsPerRun(50, func() {
		hint += 1024
		tr.SizeHint(hint)
	}); a != 0 {
		t.Fatalf("SizeHint on a disabled tracer made %v allocations per call, want 0", a)
	}
}

// TestStageTextForm: a map keyed by Stage encodes to the JSON of the
// same map keyed by the stage names, byte for byte (the server export
// and the bench digest hash that JSON), and decodes back.
func TestStageTextForm(t *testing.T) {
	names := []string{"CS", "SP", "PS", "AL", "RD", "FC", "AS", "CP", "SS"}
	byStage := map[Stage]stats.Summary{}
	byName := map[string]stats.Summary{}
	for s := range NumStages {
		sum := stats.Summary{N: int(s) + 1, Mean: float64(s) + 0.25, P99: 1e3}
		byStage[s] = sum
		byName[names[s]] = sum
	}
	got, err := json.Marshal(byStage)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(byName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stage-keyed JSON\n%s\nwant\n%s", got, want)
	}
	var back map[Stage]stats.Summary
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, byStage) {
		t.Fatalf("decoded %v, want %v", back, byStage)
	}
	var s Stage
	if err := s.UnmarshalText([]byte("XX")); err == nil {
		t.Fatal("unknown stage name decoded")
	}
}

func TestRTTViaHooks(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k)
	tag := tr.NextTag()
	tr.RecordHook(Hook1, tag)
	k.After(83*sim.Millisecond, func() { tr.RecordHook(Hook10, tag) })
	k.Run()
	if n := tr.CompletedRTTCount(); n != 1 {
		t.Fatalf("completed RTTs = %d, want 1", n)
	}
	if got := tr.RTTs().Mean(); got != 83 {
		t.Fatalf("RTT = %vms, want 83", got)
	}
}

func TestDuplicateHookIgnored(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k)
	tag := tr.NextTag()
	tr.RecordHook(Hook1, tag)
	k.After(10*sim.Millisecond, func() { tr.RecordHook(Hook10, tag) })
	k.After(90*sim.Millisecond, func() { tr.RecordHook(Hook10, tag) })
	k.Run()
	if n := tr.CompletedRTTCount(); n != 1 {
		t.Fatalf("completed RTTs = %d, want 1", n)
	}
	if got := tr.RTTs().Mean(); got != 10 {
		t.Fatalf("RTT = %vms, want first observation (10)", got)
	}
}

func TestUntaggedHookIgnored(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k)
	tr.RecordHook(Hook1, 0)
	if len(tr.Records()) != 0 {
		t.Fatal("tag 0 should never be recorded")
	}
}

func TestStageAccounting(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k)
	tag := tr.NextTag()
	tr.AddStage(StageAL, 12*sim.Millisecond, tag)
	tr.AddStage(StageAL, 14*sim.Millisecond) // aggregate-only
	s := tr.StageSample(StageAL)
	if s.N() != 2 || s.Mean() != 13 {
		t.Fatalf("AL sample = n%d mean%v, want n2 mean13", s.N(), s.Mean())
	}
	recs := tr.Records()
	al, ok := recs[0].Stage(StageAL)
	if len(recs) != 1 || !ok || al != 12*sim.Millisecond {
		t.Fatal("per-tag stage not recorded")
	}
}

func TestPerTagStageFirstObservationWins(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k)
	tag := tr.NextTag()
	tr.AddStage(StageCP, 5*sim.Millisecond, tag)
	tr.AddStage(StageCP, 50*sim.Millisecond, tag)
	if got, ok := tr.Records()[0].Stage(StageCP); !ok || got != 5*sim.Millisecond {
		t.Fatalf("per-tag CP = %v, want first observation 5ms", got)
	}
}

func TestFPSCounters(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k)
	for i := 0; i < 30; i++ {
		k.After(sim.Duration(i)*33*sim.Millisecond, tr.ServerFrameTick)
		if i%2 == 0 {
			k.After(sim.Duration(i)*33*sim.Millisecond, tr.ClientFrameTick)
		}
	}
	k.Run()
	k.RunUntil(sim.Time(sim.Second))
	if fps := tr.ServerFPS(); fps < 25 || fps > 35 {
		t.Fatalf("server FPS = %v, want ~30", fps)
	}
	if fps := tr.ClientFPS(); fps < 12 || fps > 18 {
		t.Fatalf("client FPS = %v, want ~15", fps)
	}
}

func TestReset(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k)
	tag := tr.NextTag()
	tr.RecordHook(Hook1, tag)
	tr.RecordHook(Hook10, tag)
	tr.ServerFrameTick()
	tr.FrameDropped()
	tr.Reset()
	if tr.CompletedRTTCount() != 0 || len(tr.Records()) != 0 || tr.DroppedFrames() != 0 {
		t.Fatal("reset did not clear measurements")
	}
	// Tag counter must NOT reset: tags stay unique across the session.
	if next := tr.NextTag(); next != tag+1 {
		t.Fatalf("tag after reset = %d, want %d", next, tag+1)
	}
}

func TestEmbedExtractRoundTrip(t *testing.T) {
	tags := []uint64{1, 0xDEADBEEF, 1 << 62}
	hdr := EmbedTags(nil, tags)
	if len(hdr) != 1+8*len(tags) {
		t.Fatalf("header holds %d bytes, want %d", len(hdr), 1+8*len(tags))
	}
	got := ExtractTags(hdr)
	if len(got) != 3 || got[0] != 1 || got[1] != 0xDEADBEEF || got[2] != 1<<62 {
		t.Fatalf("extracted %v, want %v", got, tags)
	}
}

func TestEmbedEmptyAndTooSmall(t *testing.T) {
	// No tags still writes the count, over whatever a recycled header
	// held, so hook8 reads "none" for an untagged frame.
	stale := EmbedTags(nil, []uint64{5, 6})
	if hdr := EmbedTags(stale, nil); len(hdr) != 1 || hdr[0] != 0 || ExtractTags(hdr) != nil {
		t.Fatalf("embedding no tags gave header %v", hdr)
	}
	// A header cut short of its count decodes to nothing.
	if ExtractTags(EmbedTags(nil, []uint64{1})[:3]) != nil {
		t.Fatal("a truncated header decoded as tags")
	}
	if ExtractTags(nil) != nil {
		t.Fatal("extracting from nothing should fail")
	}
}

func TestEmbedCapsTagCount(t *testing.T) {
	tags := make([]uint64, 50)
	for i := range tags {
		tags[i] = uint64(i + 1)
	}
	got := ExtractTags(EmbedTags(nil, tags))
	if len(got) != MaxEmbeddedTags {
		t.Fatalf("extracted %d tags, want cap %d", len(got), MaxEmbeddedTags)
	}
}

func TestExtractRejectsGarbage(t *testing.T) {
	hdr := make([]byte, 100)
	// All-zero header: count 0 → nothing.
	if ExtractTags(hdr) != nil {
		t.Fatal("garbage header decoded as tags")
	}
	hdr[0] = 255 // count 255 > cap → reject
	if ExtractTags(hdr) != nil {
		t.Fatal("oversized count decoded as tags")
	}
}

// Property: embed → extract is the identity for any tag set, whatever
// the recycled header held before.
func TestEmbedRoundTripProperty(t *testing.T) {
	f := func(rawTags []uint64, stale []byte) bool {
		tags := rawTags
		if len(tags) > MaxEmbeddedTags {
			tags = tags[:MaxEmbeddedTags]
		}
		got := ExtractTagsAppend(EmbedTags(stale, tags), nil)
		if len(got) != len(tags) {
			return false
		}
		for i := range got {
			if got[i] != tags[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
