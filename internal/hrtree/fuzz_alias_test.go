package hrtree

import (
	"bytes"
	"testing"

	"stindex/internal/geom"
)

// FuzzDecodeHNodeAliasSafety checks the contract the decode cache depends
// on: decodeHNode must neither mutate the page image it is handed nor
// retain any reference into it — the buffer pool recycles frames under
// cached nodes.
func FuzzDecodeHNodeAliasSafety(f *testing.F) {
	good := &hnode{id: 1, leaf: true}
	good.entries = append(good.entries,
		hentry{rect: geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.3, MaxY: 0.4}, ref: 5},
		hentry{rect: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.6, MaxY: 0.7}, ref: 6})
	f.Add(good.Encode(nil))
	f.Add([]byte{})
	f.Add(make([]byte, hnodeHeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		frozen := append([]byte(nil), data...)
		n1, err := decodeHNode(1, data)
		if !bytes.Equal(data, frozen) {
			t.Fatal("decodeHNode mutated its input frame")
		}
		if err != nil {
			return
		}
		for i := range data {
			data[i] ^= 0xFF
		}
		n2, err := decodeHNode(1, frozen)
		if err != nil {
			t.Fatalf("re-decode of identical bytes failed: %v", err)
		}
		if n1.leaf != n2.leaf || !bytes.Equal(n1.Encode(nil), n2.Encode(nil)) {
			t.Fatal("decoded node changed when the input frame was clobbered")
		}
	})
}
