package trajectory

import "stindex/internal/geom"

// SpanVolumes fills dst[j], for 0 <= j < end, with the volume of the
// bounding box of the instant range [j, end) — the quantity V[j, end) of
// the paper's dynamic program. It sweeps j from end-1 downwards maintaining
// a running union, so one call costs O(end) regardless of the span widths.
// dst must have length at least end. The returned slice is dst[:end].
func SpanVolumes(o *Object, end int, dst []float64) []float64 {
	r := geom.EmptyRect()
	for j := end - 1; j >= 0; j-- {
		r = r.Union(o.InstantRect(j))
		dst[j] = r.Area() * float64(end-j)
	}
	return dst[:end]
}
