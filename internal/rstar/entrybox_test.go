package rstar

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// decodeEveryPage decodes every live page of the tree's store, so a box
// any writer left out of order fails here rather than on some query.
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
		if _, err := decodeNode(id, data); err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
	}
}

// TestWritersWriteOrderedBoxes: the empty tree, Insert (node splits and
// forced reinsertion, over boxes with zero extent on some axis and
// unbounded ones) and BulkLoadSTR write only pages the decoder accepts.
func TestWritersWriteOrderedBoxes(t *testing.T) {
	empty, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	decodeEveryPage(t, empty)

	rng := rand.New(rand.NewSource(17))
	items := make([]Item, 3000)
	for i := range items {
		b := randBox3(rng)
		switch i % 7 {
		case 0:
			b.Max = b.Min // a point
		case 1:
			b.Max[2] = b.Min[2] // a snapshot
		case 2:
			b.Min[0], b.Max[1] = math.Inf(-1), math.Inf(1)
		}
		items[i] = Item{Box: b, Ref: uint64(i)}
	}
	inserted, err := New(Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := inserted.Insert(it.Box, it.Ref); err != nil {
			t.Fatal(err)
		}
	}
	packed, err := BulkLoadSTR(Options{MaxEntries: 8}, items)
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range []*Tree{inserted, packed} {
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		decodeEveryPage(t, tree)
	}
}

// TestWritersRefuseDisorderedBoxes: Insert and BulkLoadSTR refuse a box
// with a NaN coordinate, which IsEmpty lets through and no query could
// match, as they refuse an inverted one.
func TestWritersRefuseDisorderedBoxes(t *testing.T) {
	ok := geom.Box3{Max: [3]float64{1, 1, 1}}
	nan := ok
	nan.Min[1] = math.NaN()
	inverted := ok
	inverted.Min[2] = 2
	for _, b := range []geom.Box3{nan, inverted} {
		tree, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(b, 1); !errors.Is(err, geom.ErrInvertedBox) {
			t.Errorf("Insert(%v) = %v, want ErrInvertedBox", b, err)
		}
		if tree.Len() != 0 {
			t.Errorf("refused insert counted: Len %d", tree.Len())
		}
		if _, err := BulkLoadSTR(Options{}, []Item{{Box: ok, Ref: 1}, {Box: b, Ref: 2}}); !errors.Is(err, geom.ErrInvertedBox) {
			t.Errorf("BulkLoadSTR with %v = %v, want ErrInvertedBox", b, err)
		}
	}
}

// invertedBoxPage returns the image of a two-entry leaf whose second box
// is patched by mutate.
func invertedBoxPage(mutate func(*geom.Box3)) []byte {
	n := &node{id: 1, leaf: true, entries: []entry{
		{box: geom.Box3{Min: [3]float64{0.1, 0.1, 0.1}, Max: [3]float64{0.2, 0.2, 0.2}}, ref: 7},
		{box: geom.Box3{Min: [3]float64{0.3, 0.3, 0.3}, Max: [3]float64{0.4, 0.4, 0.4}}, ref: 8},
	}}
	mutate(&n.entries[1].box)
	return n.Encode(nil)
}

// disorderedBoxes are the corruptions decodeNode refuses: an axis turned
// inside out, and a NaN, on each axis.
var disorderedBoxes = map[string]func(*geom.Box3){
	"inverted-x": func(b *geom.Box3) { b.Min[0] = b.Max[0] + 0.5 },
	"inverted-t": func(b *geom.Box3) { b.Min[2], b.Max[2] = b.Max[2], b.Min[2] },
	"nan-min-y":  func(b *geom.Box3) { b.Min[1] = math.NaN() },
	"nan-max-t":  func(b *geom.Box3) { b.Max[2] = math.NaN() },
}

func TestDecodeRefusesDisorderedBox(t *testing.T) {
	for name, mutate := range disorderedBoxes {
		if _, err := decodeNode(1, invertedBoxPage(mutate)); !errors.Is(err, geom.ErrInvertedBox) {
			t.Errorf("%s: decodeNode = %v, want ErrInvertedBox", name, err)
		}
	}
	if _, err := decodeNode(1, invertedBoxPage(func(*geom.Box3) {})); err != nil {
		t.Fatalf("unpatched page: %v", err)
	}
}

// TestSearchEmptyQueryReadsRoot pins what checking the query once kept:
// an empty query matches nothing and still reads the root, exactly as a
// query that misses every entry does.
func TestSearchEmptyQueryReadsRoot(t *testing.T) {
	tree, _ := buildRandomTree(t, rand.New(rand.NewSource(9)), 2000, Options{MaxEntries: 8})
	if tree.Height() < 2 {
		t.Fatalf("height %d, want a directory root", tree.Height())
	}
	far := geom.Box3{Min: [3]float64{5, 5, 5}, Max: [3]float64{6, 6, 6}}
	tree.Buffer().Reset()
	if c, err := tree.Count(far); err != nil || c != 0 {
		t.Fatalf("far query: %d, %v", c, err)
	}
	want := tree.Buffer().Stats()
	if want.Reads != 1 {
		t.Fatalf("a query missing every entry read %d pages, want the root alone", want.Reads)
	}
	inverted := geom.Box3{Min: [3]float64{0.9, 0, 0}, Max: [3]float64{0.1, 1, 1}}
	for _, q := range []geom.Box3{geom.EmptyBox3(), inverted} {
		tree.Buffer().Reset()
		if c, err := tree.Count(q); err != nil || c != 0 {
			t.Fatalf("empty query %v: %d, %v", q, c, err)
		}
		if got := tree.Buffer().Stats(); got != want {
			t.Fatalf("empty query %v: stats %+v, want %+v", q, got, want)
		}
	}
}
