package stream

import (
	"testing"

	"stindex/internal/geom"
)

// TestQueryBetweenObservationsSeesExpansion interleaves queries with the
// stream's in-place record expansions: every Observe grows the open
// record's rectangle (tree.ExpandAlive rewrites leaf and directory pages
// in place), and a query issued immediately afterwards must see the new
// extent. Queries populate the buffer's decode cache, so any stale cached
// node would prune the moving object away and drop it from the result.
func TestQueryBetweenObservationsSeesExpansion(t *testing.T) {
	ix, err := New(Options{Lambda: 1e9}, 0) // huge lambda: one open record
	if err != nil {
		t.Fatal(err)
	}
	// Distractors so the tree has real directory structure to cache.
	for i := int64(2); i < 40; i++ {
		x := 0.01 * float64(i%6)
		y := 0.01 * float64(i/6)
		r := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.005, MaxY: y + 0.005}
		if err := ix.Observe(i, 0, r); err != nil {
			t.Fatal(err)
		}
	}
	for tm := int64(0); tm < 30; tm++ {
		shift := 0.03 * float64(tm)
		cell := geom.Rect{MinX: 0.2 + shift, MinY: 0.5, MaxX: 0.21 + shift, MaxY: 0.51}
		if err := ix.Observe(1, tm, cell); err != nil {
			t.Fatal(err)
		}
		// Query the just-covered cell: object 1 must be visible through
		// the freshly rewritten pages.
		ids, err := snapshotIDs(ix, cell, tm)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, id := range ids {
			if id == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("t=%d: stale decode — expanded object missing from %v", tm, ids)
		}
	}
}
