package rstar

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecodeNode feeds arbitrary page images to the node decoder. Every
// box of a node it accepts is Ordered, which Search's kernel relies on.
func FuzzDecodeNode(f *testing.F) {
	good := &node{id: 1, leaf: true}
	good.entries = append(good.entries, entry{ref: 42})
	f.Add(good.Encode(nil))
	f.Add(invertedBoxPage(disorderedBoxes["inverted-x"]))
	f.Add(invertedBoxPage(disorderedBoxes["nan-min-y"]))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := decodeNode(1, data)
		if err != nil {
			return
		}
		if len(n.entries)*entrySize+nodeHeaderSize > len(data) {
			t.Fatalf("decoded %d entries from %d bytes", len(n.entries), len(data))
		}
		for i := range n.entries {
			if !n.entries[i].box.Ordered() {
				t.Fatalf("accepted entry %d with box %v", i, n.entries[i].box)
			}
		}
	})
}

// FuzzRStarImage feeds arbitrary bytes to ReadMeta, the tree's untrusted
// parse (the page extent after it is read by the page codec, fuzzed
// through whole containers). It must never panic, what it accepts has a
// height, and a meta section it accepts must write back to one that reads
// back to itself.
func FuzzRStarImage(f *testing.F) {
	empty, err := New(Options{})
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	items := make([]Item, 500)
	for i := range items {
		items[i] = Item{Box: randBox3(rng), Ref: uint64(i)}
	}
	packed, err := BulkLoadSTR(Options{MaxEntries: 8, BufferPages: 16}, items)
	if err != nil {
		f.Fatal(err)
	}
	for _, tree := range []*Tree{empty, packed} {
		var buf bytes.Buffer
		if _, err := tree.WriteMeta(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("STRS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := ReadMeta(bytes.NewReader(data))
		if err != nil {
			return
		}
		if loaded.Height() < 1 {
			t.Fatal("loaded tree with zero height")
		}
		var once, twice bytes.Buffer
		if _, err := loaded.WriteMeta(&once); err != nil {
			t.Fatalf("writing an accepted meta section: %v", err)
		}
		again, err := ReadMeta(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("reading back an accepted meta section: %v", err)
		}
		if _, err := again.WriteMeta(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("an accepted meta section does not read back to itself")
		}
	})
}
