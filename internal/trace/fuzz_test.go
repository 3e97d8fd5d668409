package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pictor/internal/sim"
)

// FuzzEmbedTagsRoundTrip drives the hook6→hook8 tag-header channel with
// arbitrary tag sets and recycled headers: whatever the reused header
// held, EmbedTags must write exactly one count byte and eight bytes per
// tag (capped at MaxEmbeddedTags), and ExtractTagsAppend must read back
// exactly those tags after whatever dst already held — for any tag
// values (all 64 bits), including the empty list, whose count of 0 must
// read back as no tags. A header cut short of its count must decode to
// nothing.
func FuzzEmbedTagsRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(32))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(200))
	f.Add(bytes.Repeat([]byte{0xAB}, 8*20), uint16(4)) // more tags than fit
	f.Add(bytes.Repeat([]byte{7}, 8*(MaxEmbeddedTags+3)), uint16(1024))
	f.Add([]byte{1, 2, 3}, uint16(64)) // no whole tag: an untagged frame

	f.Fuzz(func(t *testing.T, raw []byte, staleLen uint16) {
		var tags []uint64
		for i := 0; i+8 <= len(raw); i += 8 {
			tags = append(tags, binary.LittleEndian.Uint64(raw[i:i+8]))
		}
		// A recycled header still holding an earlier frame's bytes.
		stale := make([]byte, staleLen)
		for i := range stale {
			stale[i] = byte(i + 1)
		}

		hdr := EmbedTags(stale, tags)

		want := tags
		if len(want) > MaxEmbeddedTags {
			want = want[:MaxEmbeddedTags]
		}
		if len(hdr) != 1+8*len(want) {
			t.Fatalf("%d tags encoded in %d bytes, want %d", len(want), len(hdr), 1+8*len(want))
		}
		got := ExtractTagsAppend(hdr, []uint64{1})
		if len(got) != 1+len(want) || got[0] != 1 {
			t.Fatalf("embedded %d tags, extracted %d after the existing entry", len(want), len(got)-1)
		}
		for i := range want {
			if got[1+i] != want[i] {
				t.Fatalf("tag %d: embedded %#x, extracted %#x", i, want[i], got[1+i])
			}
		}
		if len(want) > 0 && len(ExtractTagsAppend(hdr[:len(hdr)-1], nil)) != 0 {
			t.Fatal("a header cut short of its count decoded as tags")
		}
	})
}

// TestResetClearsTagRecordState is the regression test for the
// fixed-array TagRecord storage: after Reset, a re-observed tag id must
// start from a blank record — no issue time, no stage latencies, no
// completed-RTT carryover from before the reset. (A leaked issue time
// or stageSet bit would let a warmup observation complete a
// measurement-window RTT.)
func TestResetClearsTagRecordState(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k)

	tag := tr.NextTag()
	tr.RecordHook(Hook1, tag)
	tr.AddStage(StageAL, 3*sim.Millisecond, tag)
	tr.AddStage(StageRD, 2*sim.Millisecond, tag)
	tr.RecordHook(Hook10, tag)
	tr.ServerFrameTick()
	tr.ClientFrameTick()
	tr.FrameDropped()
	if tr.CompletedRTTCount() != 1 {
		t.Fatalf("precondition: RTT should have completed, n=%d", tr.CompletedRTTCount())
	}

	tr.Reset()

	if n := len(tr.Records()); n != 0 {
		t.Fatalf("%d records survive Reset", n)
	}
	if tr.CompletedRTTCount() != 0 || tr.RTTs().N() != 0 {
		t.Fatal("RTT sample survives Reset")
	}
	for s := range NumStages {
		if n := tr.StageSample(s).N(); n != 0 {
			t.Fatalf("stage %s keeps %d observations after Reset", s, n)
		}
	}
	if tr.ServerFrameCount() != 0 || tr.ClientFrameCount() != 0 || tr.DroppedFrames() != 0 {
		t.Fatal("frame counters survive Reset")
	}

	// Re-observe the same tag id: its record must be blank, so a lone
	// Hook10 must not complete an RTT against the pre-reset Hook1.
	tr.RecordHook(Hook10, tag)
	if tr.CompletedRTTCount() != 0 {
		t.Fatal("pre-reset Hook1 leaked into a post-reset round trip")
	}
	rec := tr.Records()[0]
	if _, ok := rec.Issued(); ok {
		t.Fatal("pre-reset issue time visible after Reset")
	}
	for s := range NumStages {
		if _, ok := rec.Stage(s); ok {
			t.Fatalf("pre-reset stage %s latency visible after Reset", s)
		}
	}

	// And a full round trip after Reset works from scratch.
	tag2 := tr.NextTag()
	if tag2 == tag {
		t.Fatal("tag allocation must not restart after Reset (tags must stay unique)")
	}
	tr.RecordHook(Hook1, tag2)
	tr.RecordHook(Hook10, tag2)
	if tr.CompletedRTTCount() != 1 {
		t.Fatal("post-reset round trip failed to record")
	}
}
