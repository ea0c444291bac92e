package rstar

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// pageImages is every live page of the store in id order (nil where the
// id is free), then the free list as one more entry.
func pageImages(t *testing.T, s pagefile.Store) [][]byte {
	t.Helper()
	pages := make([][]byte, s.NumAllocated())
	for i := range pages {
		id := pagefile.PageID(i)
		if s.Check(id) != nil {
			continue
		}
		pages[i] = make([]byte, s.PageSize())
		if err := s.ReadPage(id, pages[i]); err != nil {
			t.Fatal(err)
		}
	}
	var free []byte
	for _, id := range s.FreeList() {
		free = append(free, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return append(pages, free)
}

// firstDifference is the first page id at which two pageImages differ
// (len(a)-1 for the free list), or -1.
func firstDifference(a, b [][]byte) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || !bytes.Equal(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// searchAll is the sorted refs Search reports for each query.
func searchAll(t *testing.T, tree *Tree, queries []geom.Box3) [][]uint64 {
	t.Helper()
	out := make([][]uint64, len(queries))
	for i, q := range queries {
		err := tree.Search(q, func(_ geom.Box3, ref uint64) bool {
			out[i] = append(out[i], ref)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(out[i])
	}
	return out
}

// insertAll inserts boxes[lo:hi] with their indexes as refs.
func insertAll(tree *Tree, boxes []geom.Box3, lo, hi int) error {
	for i := lo; i < hi; i++ {
		if err := tree.Insert(boxes[i], uint64(i)); err != nil {
			return err
		}
	}
	return nil
}

// TestBracketMatchesWriteThrough: the write-back bracket is an
// optimisation only. The same inserts applied write-through and in
// brackets of 7, of 256 and of the whole feed leave the same page
// images, page for page, and the same free list, and the bracketed tree
// validates inside each bracket and after it.
func TestBracketMatchesWriteThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	boxes := make([]geom.Box3, 3000)
	for i := range boxes {
		boxes[i] = randBox3(rng)
	}
	opts := Options{MaxEntries: 8, BufferPages: 16}
	single, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := insertAll(single, boxes, 0, len(boxes)); err != nil {
		t.Fatal(err)
	}
	want := pageImages(t, single.Store())
	for _, size := range []int{7, 256, len(boxes)} {
		tree, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(boxes); lo += size {
			hi := min(lo+size, len(boxes))
			err := tree.Batch(func() error {
				if err := insertAll(tree, boxes, lo, hi); err != nil {
					return err
				}
				if lo%(32*size) == 0 {
					return tree.Validate()
				}
				return nil
			})
			if err != nil {
				t.Fatalf("groups of %d, inserts %d..%d: %v", size, lo, hi, err)
			}
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("groups of %d: %v", size, err)
		}
		if tree.Height() < 3 || tree.Height() != single.Height() || tree.Len() != single.Len() {
			t.Fatalf("groups of %d: height %d and %d entries, write-through %d and %d",
				size, tree.Height(), tree.Len(), single.Height(), single.Len())
		}
		if i := firstDifference(pageImages(t, tree.Store()), want); i != -1 {
			t.Errorf("groups of %d: page %d differs from write-through", size, i)
		}
	}
}

// TestSearchInsideBracket: a search inside an open bracket answers from
// the resident nodes, whose pages are not written yet, and gives the
// answers of the same inserts applied write-through.
func TestSearchInsideBracket(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	boxes := make([]geom.Box3, 2000)
	for i := range boxes {
		boxes[i] = randBox3(rng)
	}
	queries := make([]geom.Box3, 40)
	for i := range queries {
		q := randBox3(rng)
		for d := 0; d < 3; d++ {
			q.Max[d] += 0.1
		}
		queries[i] = q
	}
	opts := Options{MaxEntries: 8, BufferPages: 16}
	single, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	half := len(boxes) / 2
	if err := insertAll(single, boxes, 0, half); err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, single, queries)
	err = tree.Batch(func() error {
		if err := insertAll(tree, boxes, 0, half); err != nil {
			return err
		}
		if firstDifference(pageImages(t, tree.Store()), pageImages(t, single.Store())) == -1 {
			t.Error("the pages are written inside the bracket: the search would not need the resident nodes")
		}
		if got := searchAll(t, tree, queries); !slices.EqualFunc(got, want, slices.Equal) {
			t.Error("a search inside the bracket answers differently from write-through")
		}
		return insertAll(tree, boxes, half, len(boxes))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := insertAll(single, boxes, half, len(boxes)); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(searchAll(t, tree, queries), searchAll(t, single, queries), slices.Equal) {
		t.Error("after the bracket the answers differ from write-through")
	}
}

var errInjected = errors.New("injected write fault")

// faultyStore fails every page write once armed.
type faultyStore struct {
	pagefile.Store
	armed bool
}

func (s *faultyStore) WritePage(id pagefile.PageID, data []byte) error {
	if s.armed {
		return errInjected
	}
	return s.Store.WritePage(id, data)
}

// TestFailedFlushPoisons: a bracket whose flush fails on a store write
// leaves the tree poisoned, and every later read, insert, bracket and
// serialisation returns the failure.
func TestFailedFlushPoisons(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tree, _ := buildRandomTree(t, rng, 300, Options{MaxEntries: 8, BufferPages: 16})
	store := &faultyStore{Store: tree.Store()}
	tree.attach(store)
	err := tree.Batch(func() error {
		for i := 0; i < 50; i++ {
			if err := tree.Insert(randBox3(rng), uint64(1000+i)); err != nil {
				return err
			}
		}
		store.armed = true
		return nil
	})
	if !errors.Is(err, errInjected) {
		t.Fatalf("Batch returned %v, want the injected fault", err)
	}
	store.armed = false
	all := geom.Box3{Max: [3]float64{2, 2, 2}}
	var meta bytes.Buffer
	_, metaErr := tree.WriteMeta(&meta)
	for name, err := range map[string]error{
		"search":  tree.Search(all, func(geom.Box3, uint64) bool { return true }),
		"nearest": tree.NearestSearch(0.5, 0.5, 0.5, func(float64, uint64) bool { return true }),
		"insert":  tree.Insert(randBox3(rng), 5000),
		"batch":   tree.Batch(func() error { return nil }),
		"meta":    metaErr,
	} {
		if !errors.Is(err, errInjected) {
			t.Errorf("%s after the failed bracket: %v, want the injected fault", name, err)
		}
	}
}
