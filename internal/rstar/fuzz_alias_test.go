package rstar

import (
	"bytes"
	"testing"

	"stindex/internal/geom"
)

// FuzzDecodeNodeAliasSafety checks the contract the decode cache depends
// on: decodeNode must neither mutate the page image it is handed nor
// retain any reference into it. The buffer pool reuses frames, so a
// decoder that aliased its input would corrupt cached nodes the moment the
// frame is recycled for another page.
func FuzzDecodeNodeAliasSafety(f *testing.F) {
	good := &node{id: 1, leaf: true}
	good.entries = append(good.entries, entry{
		box: geom.Box3{Min: [3]float64{0.1, 0.2, 0.3}, Max: [3]float64{0.4, 0.5, 0.6}},
		ref: 7,
	})
	f.Add(good.Encode(nil))
	dir := &node{id: 2, leaf: false}
	dir.entries = append(dir.entries, entry{box: good.entries[0].box, ref: 3},
		entry{box: good.entries[0].box, ref: 4})
	f.Add(dir.Encode(nil))
	f.Add([]byte{})
	f.Add(make([]byte, nodeHeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		frozen := append([]byte(nil), data...)
		n1, err := decodeNode(1, data)
		if !bytes.Equal(data, frozen) {
			t.Fatal("decodeNode mutated its input frame")
		}
		if err != nil {
			return
		}
		// Clobber the frame: a decode that retained an alias changes too.
		for i := range data {
			data[i] ^= 0xFF
		}
		n2, err := decodeNode(1, frozen)
		if err != nil {
			t.Fatalf("re-decode of identical bytes failed: %v", err)
		}
		// Compare via re-encoding — exact for every bit pattern, NaNs
		// included, which reflect.DeepEqual is not.
		if n1.leaf != n2.leaf || !bytes.Equal(n1.Encode(nil), n2.Encode(nil)) {
			t.Fatal("decoded node changed when the input frame was clobbered")
		}
	})
}
