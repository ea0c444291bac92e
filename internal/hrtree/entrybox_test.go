package hrtree

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// TestWritersWriteOrderedRects: inserts and deletes (node dissolves,
// orphan reinsertion, root collapse) down to an empty tree write only
// pages the decoder accepts, over every version's pages.
func TestWritersWriteOrderedRects(t *testing.T) {
	recs := randHRecords(rand.New(rand.NewSource(23)), 1500, 200)
	for i := range recs {
		if i%4 == 0 {
			recs[i].rect.MaxX, recs[i].rect.MaxY = recs[i].rect.MinX, recs[i].rect.MinY
		}
	}
	tree := buildHR(t, Options{MaxEntries: 8, BufferPages: 64}, recs)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	store := tree.Store()
	data := make([]byte, store.PageSize())
	for id := pagefile.PageID(0); int(id) < store.NumAllocated(); id++ {
		if store.Check(id) != nil {
			continue // freed
		}
		if err := store.ReadPage(id, data); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeHNode(id, data); err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
	}
}

// invertedRectPage returns the image of a two-entry leaf whose second
// rectangle is patched by mutate.
func invertedRectPage(mutate func(*geom.Rect)) []byte {
	n := &hnode{id: 1, leaf: true, entries: []hentry{
		{rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}, ref: 7},
		{rect: geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.4, MaxY: 0.4}, ref: 8},
	}}
	mutate(&n.entries[1].rect)
	return n.Encode(nil)
}

func TestDecodeRefusesDisorderedRect(t *testing.T) {
	for name, mutate := range map[string]func(*geom.Rect){
		"inverted-x": func(r *geom.Rect) { r.MinX = r.MaxX + 0.5 },
		"nan-max-y":  func(r *geom.Rect) { r.MaxY = math.NaN() },
	} {
		if _, err := decodeHNode(1, invertedRectPage(mutate)); !errors.Is(err, geom.ErrInvertedBox) {
			t.Errorf("%s: decodeHNode = %v, want ErrInvertedBox", name, err)
		}
	}
}

// TestSearchEmptyQueryReadsRoots: an empty query matches nothing and
// reads what a query missing every entry reads.
func TestSearchEmptyQueryReadsRoots(t *testing.T) {
	tree := buildHR(t, Options{MaxEntries: 8, BufferPages: 64}, randHRecords(rand.New(rand.NewSource(6)), 800, 200))
	far := geom.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}
	iv := geom.Interval{Start: 10, End: 150}
	none := func(geom.Rect, uint64) bool { t.Fatal("an empty query matched"); return false }
	searches := map[string]func(q geom.Rect, fn func(geom.Rect, uint64) bool) error{
		"snapshot": func(q geom.Rect, fn func(geom.Rect, uint64) bool) error { return tree.SnapshotSearch(q, 100, fn) },
		"interval": func(q geom.Rect, fn func(geom.Rect, uint64) bool) error { return tree.IntervalSearch(q, iv, fn) },
	}
	for name, search := range searches {
		tree.Buffer().Reset()
		if err := search(far, none); err != nil {
			t.Fatal(err)
		}
		want := tree.Buffer().Stats()
		if want.Reads < 1 {
			t.Fatalf("%s far query read no root", name)
		}
		for _, q := range []geom.Rect{geom.EmptyRect(), {MinX: 0.9, MinY: 0, MaxX: 0.1, MaxY: 1}} {
			tree.Buffer().Reset()
			if err := search(q, none); err != nil {
				t.Fatal(err)
			}
			if got := tree.Buffer().Stats(); got != want {
				t.Fatalf("%s empty query %v: stats %+v, want %+v", name, q, got, want)
			}
		}
	}
}
