package trace

// Tag embedding (hook6 → hook8). The application cannot hand metadata to
// the server proxy directly — frames cross the process boundary as raw
// pixels — so the paper writes the tags into the first pixels of the
// frame at hook6 and extracts them (restoring the original pixels) at
// hook8. Here hook6 encodes the tags into a small per-frame tag header
// that stands for those leading pixels on the IPC path, and hook8
// decodes it; the raster itself is never touched, so nothing has to be
// backed up or restored.
//
// Layout, one byte per leading-pixel slot (a pixel would carry the
// byte scaled into [0,1]):
//
//	byte[0]          tag count n (≤ MaxEmbeddedTags; 0 for an untagged frame)
//	byte[1..8n]      n little-endian uint64 tags, one byte per slot

// MaxEmbeddedTags bounds how many tags one frame can carry.
const MaxEmbeddedTags = 15

// embeddedLen reports the number of slots the encoding occupies.
func embeddedLen(n int) int { return 1 + 8*n }

// EmbedTags encodes the tags as the frame's hook6 tag header, reusing
// hdr's storage (pass the frame's previous header, or nil), and returns
// the header. Tags beyond MaxEmbeddedTags are dropped. The count is
// always written, 0 for an empty tag list, so hook8 reads "no tags"
// for an untagged frame.
func EmbedTags(hdr []byte, tags []uint64) []byte {
	if len(tags) > MaxEmbeddedTags {
		tags = tags[:MaxEmbeddedTags]
	}
	hdr = append(hdr[:0], byte(len(tags)))
	for _, tag := range tags {
		for b := 0; b < 8; b++ {
			hdr = append(hdr, byte(tag>>(8*b)))
		}
	}
	return hdr
}

// ExtractTags reads tags encoded by EmbedTags. It returns nil when the
// header holds no tags or is implausible (count too large for the cap
// or for the header).
func ExtractTags(hdr []byte) []uint64 {
	out := ExtractTagsAppend(hdr, nil)
	if len(out) == 0 {
		return nil
	}
	return out
}

// ExtractTagsAppend reads tags encoded by EmbedTags, appending them to
// dst (pass a recycled buffer sliced to length 0 to avoid the per-frame
// allocation). An empty header, a count of 0 or an implausible count
// (too large for the cap or for the header) appends nothing.
func ExtractTagsAppend(hdr []byte, dst []uint64) []uint64 {
	if len(hdr) == 0 {
		return dst
	}
	count := int(hdr[0])
	if count > MaxEmbeddedTags || len(hdr) < embeddedLen(count) {
		return dst
	}
	for i := 0; i < count; i++ {
		var tag uint64
		for b := 0; b < 8; b++ {
			tag |= uint64(hdr[1+i*8+b]) << (8 * b)
		}
		dst = append(dst, tag)
	}
	return dst
}
