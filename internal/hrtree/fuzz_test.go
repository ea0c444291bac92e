package hrtree

import (
	"testing"

	"stindex/internal/geom"
)

// FuzzDecodeHNode feeds arbitrary page images to the node decoder. Every
// rectangle of a node it accepts is Ordered.
func FuzzDecodeHNode(f *testing.F) {
	good := &hnode{id: 1, leaf: true}
	good.entries = append(good.entries, hentry{
		rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, ref: 3,
	})
	f.Add(good.Encode(nil))
	f.Add(invertedRectPage(func(r *geom.Rect) { r.MinX = r.MaxX + 0.5 }))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := decodeHNode(1, data)
		if err != nil {
			return
		}
		if len(n.entries)*hentrySize+hnodeHeaderSize > len(data) {
			t.Fatalf("decoded %d entries from %d bytes", len(n.entries), len(data))
		}
		for i := range n.entries {
			if !n.entries[i].rect.Ordered() {
				t.Fatalf("accepted entry %d with rect %v", i, n.entries[i].rect)
			}
		}
	})
}
