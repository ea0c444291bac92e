package hrtree

import (
	"strings"
	"testing"

	"stindex/internal/geom"
)

// TestSearchRejectsWideChildRef: a directory entry whose 64-bit child
// reference has bits set above the 32-bit page id would, truncated, name
// a valid page; every search must fail stop on it instead (see the
// pprtree test of the same name).
func TestSearchRejectsWideChildRef(t *testing.T) {
	tree, err := New(Options{MaxEntries: 8, MinEntries: 3, BufferPages: 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		x, y := 0.01*float64(i%10), 0.01*float64(i/10)
		if err := tree.Insert(geom.Rect{MinX: x, MinY: y, MaxX: x + 0.005, MaxY: y + 0.005}, uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	cur := tree.current()
	root, err := tree.nodes.Read(cur.page)
	if err != nil {
		t.Fatal(err)
	}
	if root.leaf {
		t.Fatal("the current root is a leaf; the test needs a directory page")
	}
	for i := range root.entries {
		root.entries[i].ref |= 1 << 32
	}
	if err := tree.nodes.Write(root); err != nil {
		t.Fatal(err)
	}

	all := geom.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	at := cur.start
	searches := map[string]error{
		"snapshot": tree.SnapshotSearch(all, at, func(geom.Rect, uint64) bool { return true }),
		"interval": tree.IntervalSearch(all, geom.Interval{Start: at, End: at + 1}, func(geom.Rect, uint64) bool { return true }),
		"nearest":  tree.NearestSearch(0.5, 0.5, at, func(float64, uint64) bool { return true }),
	}
	for name, err := range searches {
		if err == nil || !strings.Contains(err.Error(), "not a page id") {
			t.Errorf("%s search over a child reference with high bits set: err = %v, want a corrupt-structure error", name, err)
		}
	}
}
