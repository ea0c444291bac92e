package hrtree

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// treeImage is the version table, the free list and every live page of
// the tree in id order (nil where the id is free).
func treeImage(t *testing.T, tree *Tree) [][]byte {
	t.Helper()
	var head []byte
	for _, v := range tree.versions {
		for _, x := range [4]int64{int64(v.page), v.start, v.end, int64(v.height)} {
			head = append(head, byte(x), byte(x>>8), byte(x>>16), byte(x>>24), byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
		}
	}
	s := tree.Store()
	for _, id := range s.FreeList() {
		head = append(head, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	pages := [][]byte{head}
	for i := range s.NumAllocated() {
		id := pagefile.PageID(i)
		if s.Check(id) != nil {
			pages = append(pages, nil)
			continue
		}
		page := make([]byte, s.PageSize())
		if err := s.ReadPage(id, page); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, page)
	}
	return pages
}

// firstDifference is the first entry at which two treeImages differ (0
// for the version table and free list, id+1 for a page), or -1.
func firstDifference(a, b [][]byte) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || !bytes.Equal(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// applyRange applies events[lo:hi].
func applyRange(tree *Tree, recs []hrec, events []hrEvent, lo, hi int) error {
	for _, ev := range events[lo:hi] {
		if err := applyHR(tree, recs, ev); err != nil {
			return err
		}
	}
	return nil
}

// bracketRecords is a history with deletions enough to dissolve
// underflowing nodes.
func bracketRecords() []hrec { return randHRecords(rand.New(rand.NewSource(31)), 900, 120) }

var bracketOpts = Options{MaxEntries: 8, MinEntries: 3, BufferPages: 16}

// TestBracketMatchesWriteThrough: the write-back bracket is an
// optimisation only. The same history applied write-through and in
// brackets of 7, of 64 and of the whole feed leaves the same version
// table, free list and page images, page for page, and the bracketed
// tree validates inside each bracket and after it. The table holds fresh
// nodes only.
func TestBracketMatchesWriteThrough(t *testing.T) {
	recs := bracketRecords()
	events := hrEvents(recs)
	want := treeImage(t, buildHR(t, bracketOpts, recs))
	for _, size := range []int{7, 64, len(events)} {
		tree, err := New(bracketOpts, events[0].t)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(events); lo += size {
			hi := min(lo+size, len(events))
			err := tree.Batch(func() error {
				if err := applyRange(tree, recs, events, lo, hi); err != nil {
					return err
				}
				for id := range tree.Store().NumAllocated() {
					if _, ok := tree.nodes.Resident(pagefile.PageID(id)); ok && !tree.fresh[pagefile.PageID(id)] {
						t.Fatalf("groups of %d, events ..%d: page %d is resident and not fresh", size, hi, id)
					}
				}
				if lo%(16*size) == 0 {
					return tree.Validate()
				}
				return nil
			})
			if err != nil {
				t.Fatalf("groups of %d, events %d..%d: %v", size, lo, hi, err)
			}
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("groups of %d: %v", size, err)
		}
		if len(tree.Store().FreeList()) == 0 {
			t.Fatalf("groups of %d: no node was dissolved", size)
		}
		if i := firstDifference(treeImage(t, tree), want); i != -1 {
			t.Errorf("groups of %d: image entry %d differs from write-through", size, i)
		}
	}
}

// answers is the sorted refs of a snapshot and an interval search per
// query rectangle.
func answers(t *testing.T, tree *Tree, queries []geom.Rect, at int64) [][]uint64 {
	t.Helper()
	var out [][]uint64
	for _, q := range queries {
		var snap, iv []uint64
		err := tree.SnapshotSearch(q, at, func(_ geom.Rect, ref uint64) bool { snap = append(snap, ref); return true })
		if err == nil {
			err = tree.IntervalSearch(q, geom.Interval{Start: at - 20, End: at + 1}, func(_ geom.Rect, ref uint64) bool { iv = append(iv, ref); return true })
		}
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(snap)
		slices.Sort(iv)
		out = append(out, snap, iv)
	}
	return out
}

// TestSearchInsideBracket: searches inside an open bracket answer from
// the resident nodes, whose pages are not written yet, and give the
// answers of the same history applied write-through.
func TestSearchInsideBracket(t *testing.T) {
	recs := bracketRecords()
	events := hrEvents(recs)
	rng := rand.New(rand.NewSource(32))
	queries := make([]geom.Rect, 30)
	for i := range queries {
		x, y := rng.Float64()*0.7, rng.Float64()*0.7
		queries[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + 0.3, MaxY: y + 0.3}
	}
	single, err := New(bracketOpts, events[0].t)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(bracketOpts, events[0].t)
	if err != nil {
		t.Fatal(err)
	}
	half := len(events) / 2
	if err := applyRange(single, recs, events, 0, half); err != nil {
		t.Fatal(err)
	}
	at := events[half-1].t
	want := answers(t, single, queries, at)
	err = tree.Batch(func() error {
		if err := applyRange(tree, recs, events, 0, half); err != nil {
			return err
		}
		if firstDifference(treeImage(t, tree), treeImage(t, single)) == -1 {
			t.Error("the pages are written inside the bracket: the searches would not need the resident nodes")
		}
		if !slices.EqualFunc(answers(t, tree, queries, at), want, slices.Equal) {
			t.Error("searches inside the bracket answer differently from write-through")
		}
		return applyRange(tree, recs, events, half, len(events))
	})
	if err != nil {
		t.Fatal(err)
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

// TestFailedFlushPoisons: a bracket whose flush fails on a store write —
// at its end, or where time moves on and the fresh nodes are written —
// leaves the tree poisoned, and every later read, update and bracket
// returns the failure.
func TestFailedFlushPoisons(t *testing.T) {
	recs := bracketRecords()
	events := hrEvents(recs)
	for _, atAdvance := range []bool{false, true} {
		tree, err := New(bracketOpts, events[0].t)
		if err != nil {
			t.Fatal(err)
		}
		if err := applyRange(tree, recs, events, 0, 200); err != nil {
			t.Fatal(err)
		}
		store := &faultyStore{Store: tree.Store()}
		tree.attach(store)
		r := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}
		err = tree.Batch(func() error {
			if err := tree.Insert(r, 1<<20, tree.now); err != nil {
				return err
			}
			store.armed = true
			if atAdvance {
				return tree.Insert(r, 1<<20+1, tree.now+1)
			}
			return nil
		})
		if !errors.Is(err, errInjected) {
			t.Fatalf("advance %v: Batch returned %v, want the injected fault", atAdvance, err)
		}
		store.armed = false
		at := tree.now
		_, delErr := tree.Delete(r, 1<<20, at)
		for name, err := range map[string]error{
			"snapshot": tree.SnapshotSearch(r, at, func(geom.Rect, uint64) bool { return true }),
			"interval": tree.IntervalSearch(r, geom.Interval{Start: 0, End: at + 1}, func(geom.Rect, uint64) bool { return true }),
			"nearest":  tree.NearestSearch(0.5, 0.5, at, func(float64, uint64) bool { return true }),
			"insert":   tree.Insert(r, 1<<21, at),
			"delete":   delErr,
			"batch":    tree.Batch(func() error { return nil }),
			"validate": tree.Validate(),
		} {
			if !errors.Is(err, errInjected) {
				t.Errorf("advance %v: %s after the failed bracket: %v, want the injected fault", atAdvance, name, err)
			}
		}
	}
}
