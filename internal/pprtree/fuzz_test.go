package pprtree

import (
	"bytes"
	"math/rand"
	"testing"

	"stindex/internal/geom"
)

// FuzzDecodePNode feeds arbitrary page images to the node decoder: it
// must reject malformed pages with an error, never panic or over-read,
// and every rectangle of a node it accepts is Ordered.
func FuzzDecodePNode(f *testing.F) {
	good := &pnode{id: 1, leaf: true, startT: 0, endT: 100}
	good.entries = append(good.entries, pentry{insertT: 1, deleteT: 50, ref: 9})
	f.Add(good.Encode(nil))
	f.Add(invertedRectPage(disorderedRects["inverted-x"]))
	f.Add(invertedRectPage(disorderedRects["nan-min-x"]))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(make([]byte, pnodeHeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := decodePNode(1, data)
		if err != nil {
			return
		}
		// A successful decode must round-trip to the same entry count.
		if len(n.entries) > (len(data)-pnodeHeaderSize)/pentrySize+1 {
			t.Fatalf("decoded %d entries from %d bytes", len(n.entries), len(data))
		}
		for i := range n.entries {
			if !n.entries[i].rect.Ordered() {
				t.Fatalf("accepted entry %d with rect %v", i, n.entries[i].rect)
			}
		}
	})
}

// FuzzTreeImage feeds arbitrary bytes to ReadMeta, the tree's untrusted
// parse (the page extent after it is read by the page codec, fuzzed
// through whole containers). It must never panic, and a meta section it
// accepts must write back to one that reads back to itself.
func FuzzTreeImage(f *testing.F) {
	empty, err := New(Options{}, 0)
	if err != nil {
		f.Fatal(err)
	}
	built, err := BuildRecords(Options{MaxEntries: 8}, randRecords(rand.New(rand.NewSource(3)), 200, 50))
	if err != nil {
		f.Fatal(err)
	}
	online, err := New(Options{MaxEntries: 8}, 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := online.EnableExpansion(); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		x := float64(i) / 40
		if err := online.Insert(geom.Rect{MinX: x, MinY: x, MaxX: x + 0.01, MaxY: x + 0.01}, uint64(i), int64(i)); err != nil {
			f.Fatal(err)
		}
	}
	for _, tree := range []*Tree{empty, built, online} {
		var buf bytes.Buffer
		if _, err := tree.WriteMeta(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("STPP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := ReadMeta(bytes.NewReader(data))
		if err != nil {
			return
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
