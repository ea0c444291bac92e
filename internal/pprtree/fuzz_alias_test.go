package pprtree

import (
	"bytes"
	"testing"

	"stindex/internal/geom"
)

// FuzzDecodePNodeAliasSafety checks the contract the decode cache depends
// on: decodePNode must neither mutate the page image it is handed nor
// retain any reference into it — the buffer pool recycles frames under
// cached nodes.
func FuzzDecodePNodeAliasSafety(f *testing.F) {
	good := &pnode{id: 1, leaf: true, startT: 0, endT: geom.Now}
	good.entries = append(good.entries,
		pentry{rect: geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.3, MaxY: 0.4}, insertT: 1, deleteT: 50, ref: 9},
		pentry{rect: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.6, MaxY: 0.7}, insertT: 2, deleteT: geom.Now, ref: 10})
	f.Add(good.Encode(nil))
	f.Add([]byte{})
	f.Add(make([]byte, pnodeHeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		frozen := append([]byte(nil), data...)
		n1, err := decodePNode(1, data)
		if !bytes.Equal(data, frozen) {
			t.Fatal("decodePNode mutated its input frame")
		}
		if err != nil {
			return
		}
		for i := range data {
			data[i] ^= 0xFF
		}
		n2, err := decodePNode(1, frozen)
		if err != nil {
			t.Fatalf("re-decode of identical bytes failed: %v", err)
		}
		if n1.leaf != n2.leaf || !bytes.Equal(n1.Encode(nil), n2.Encode(nil)) {
			t.Fatal("decoded node changed when the input frame was clobbered")
		}
	})
}
