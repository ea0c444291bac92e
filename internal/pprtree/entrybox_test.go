package pprtree

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// decodeEveryPage decodes every live page of the tree's store, dead
// history and pages no root reaches included, so a rectangle any writer
// left out of order fails here rather than on some query.
func decodeEveryPage(t *testing.T, tree *Tree) {
	t.Helper()
	store := tree.Store()
	data := make([]byte, store.PageSize())
	for id := pagefile.PageID(0); int(id) < store.NumAllocated(); id++ {
		if store.Check(id) != nil {
			continue // freed
		}
		if err := store.ReadPage(id, data); err != nil {
			t.Fatal(err)
		}
		if _, err := decodePNode(id, data); err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
	}
}

// TestWritersWriteOrderedRects: the offline build (BuildRecords over
// point and segment rectangles) and the online path (inserts, deletes
// down to an empty tree and back, rectangle expansion) write only pages
// the decoder accepts. The empty-leaf root a dying tree leaves behind
// holds no entry, and every directory rectangle is the union of a
// non-empty node's entries.
func TestWritersWriteOrderedRects(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	recs := randRecords(rng, 2000, 200)
	for i := range recs {
		switch i % 5 {
		case 0:
			recs[i].Rect.MaxX, recs[i].Rect.MaxY = recs[i].Rect.MinX, recs[i].Rect.MinY
		case 1:
			recs[i].Rect.MaxY = recs[i].Rect.MinY
		}
	}
	built, err := BuildRecords(Options{MaxEntries: 8}, recs)
	if err != nil {
		t.Fatal(err)
	}

	online, err := New(Options{MaxEntries: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := online.EnableExpansion(); err != nil {
		t.Fatal(err)
	}
	rects := map[uint64]geom.Rect{}
	ref := uint64(0)
	for round := uint64(0); round < 3; round++ {
		base := round * 100
		for i := 0; i < 300; i++ {
			x, y := rng.Float64(), rng.Float64()
			r := geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
			if err := online.Insert(r, ref, int64(base)+int64(i/10)); err != nil {
				t.Fatal(err)
			}
			rects[ref] = r
			ref++
		}
		for id := base * 3; id < ref; id += 3 {
			r := rects[id]
			add := geom.Rect{MinX: r.MaxX, MinY: r.MaxY, MaxX: math.Min(r.MaxX+0.05, 1), MaxY: math.Min(r.MaxY+0.05, 1)}
			if err := online.ExpandAlive(r, id, add, int64(base)+40); err != nil {
				t.Fatal(err)
			}
			rects[id] = r.Union(add)
		}
		// Delete everything: the tree dies back to an empty leaf root.
		for id := base * 3; id < ref; id++ {
			if ok, err := online.Delete(rects[id], id, int64(base)+50); err != nil || !ok {
				t.Fatalf("delete %d: %v %v", id, ok, err)
			}
		}
	}
	for _, tree := range []*Tree{built, online} {
		if _, err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		decodeEveryPage(t, tree)
	}
}

// invertedRectPage returns the image of a two-entry leaf whose second
// rectangle is patched by mutate.
func invertedRectPage(mutate func(*geom.Rect)) []byte {
	n := &pnode{id: 1, leaf: true, startT: 0, endT: geom.Now, entries: []pentry{
		{rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}, insertT: 1, deleteT: geom.Now, ref: 7},
		{rect: geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.4, MaxY: 0.4}, insertT: 2, deleteT: 9, ref: 8},
	}}
	mutate(&n.entries[1].rect)
	return n.Encode(nil)
}

// disorderedRects are the corruptions decodePNode refuses.
var disorderedRects = map[string]func(*geom.Rect){
	"inverted-x": func(r *geom.Rect) { r.MinX = r.MaxX + 0.5 },
	"inverted-y": func(r *geom.Rect) { r.MinY, r.MaxY = r.MaxY, r.MinY },
	"nan-min-x":  func(r *geom.Rect) { r.MinX = math.NaN() },
	"nan-max-y":  func(r *geom.Rect) { r.MaxY = math.NaN() },
}

func TestDecodeRefusesDisorderedRect(t *testing.T) {
	for name, mutate := range disorderedRects {
		if _, err := decodePNode(1, invertedRectPage(mutate)); !errors.Is(err, geom.ErrInvertedBox) {
			t.Errorf("%s: decodePNode = %v, want ErrInvertedBox", name, err)
		}
	}
	if _, err := decodePNode(1, invertedRectPage(func(*geom.Rect) {})); err != nil {
		t.Fatalf("unpatched page: %v", err)
	}
}

// TestSearchEmptyQueryReadsRoots pins what checking the query once kept:
// an empty query matches nothing and reads exactly the roots a query that
// misses every entry reads — one for a snapshot, every overlapping span's
// for an interval.
func TestSearchEmptyQueryReadsRoots(t *testing.T) {
	tree, err := BuildRecords(Options{MaxEntries: 8, BufferPages: 64}, randRecords(rand.New(rand.NewSource(4)), 1500, 200))
	if err != nil {
		t.Fatal(err)
	}
	far := geom.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}
	empties := []geom.Rect{geom.EmptyRect(), {MinX: 0.9, MinY: 0, MaxX: 0.1, MaxY: 1}}
	iv := geom.Interval{Start: 10, End: 150}
	searches := map[string]func(q geom.Rect) (int, error){
		"snapshot": func(q geom.Rect) (int, error) { return tree.CountSnapshot(q, 100) },
		"interval": func(q geom.Rect) (int, error) { return tree.CountInterval(q, iv) },
	}
	for name, count := range searches {
		tree.Buffer().Reset()
		if c, err := count(far); err != nil || c != 0 {
			t.Fatalf("%s far query: %d, %v", name, c, err)
		}
		want := tree.Buffer().Stats()
		if want.Reads < 1 {
			t.Fatalf("%s far query read no root", name)
		}
		for _, q := range empties {
			tree.Buffer().Reset()
			if c, err := count(q); err != nil || c != 0 {
				t.Fatalf("%s empty query %v: %d, %v", name, q, c, err)
			}
			if got := tree.Buffer().Stats(); got != want {
				t.Fatalf("%s empty query %v: stats %+v, want %+v", name, q, got, want)
			}
		}
	}
}
