package trace

import (
	"testing"

	"pictor/internal/sim"
)

// BenchmarkTracerFramePath exercises the tracer work one tagged input
// causes across a full round trip: tag allocation, the hook-1 issue
// stamp and hook-10 completion, the nine stage samples, and the
// tag-header encode/decode crossing of the IPC boundary. This is the
// trace cost of one frame in a driven trial. Hook8 decodes into a slice
// reused across frames, as the proxy decodes into the recycled frame's
// tag slice.
func BenchmarkTracerFramePath(b *testing.B) {
	k := sim.NewKernel()
	tr := New(k)
	tags := make([]uint64, 1)
	var hdr []byte
	var got []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := tr.NextTag()
		tags[0] = tag
		tr.RecordHook(Hook1, tag)
		tr.AddStage(StageCS, sim.Millisecond, tag)
		tr.AddStage(StageSP, sim.Millisecond, tag)
		tr.AddStage(StagePS, sim.Millisecond, tag)
		tr.AddStage(StageAL, sim.Millisecond, tag)
		tr.AddStage(StageRD, sim.Millisecond, tag)
		hdr = EmbedTags(hdr, tags)
		tr.AddStage(StageFC, sim.Millisecond, tag)
		tr.AddStage(StageAS, sim.Millisecond, tag)
		got = ExtractTagsAppend(hdr, got[:0])
		tr.ServerFrameTick()
		tr.AddStage(StageCP, sim.Millisecond, tag)
		tr.AddStage(StageSS, sim.Millisecond, tag)
		tr.RecordHookMulti(Hook10, got)
		tr.ClientFrameTick()
		if i%4096 == 4095 {
			tr.Reset() // bound record growth like a warmup reset would
		}
	}
}

func BenchmarkEmbedExtractTags(b *testing.B) {
	tags := []uint64{7, 11, 13}
	var hdr []byte
	var out []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdr = EmbedTags(hdr, tags)
		out = ExtractTagsAppend(hdr, out[:0])
	}
	_ = out
}
