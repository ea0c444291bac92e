package rstar

import (
	"math/rand"
	"strings"
	"testing"

	"stindex/internal/geom"
)

// TestSearchRejectsWideChildRef: a directory entry whose 64-bit child
// reference has bits set above the 32-bit page id would, truncated, name
// a valid page; every search must fail stop on it instead (see the
// pprtree test of the same name).
func TestSearchRejectsWideChildRef(t *testing.T) {
	tree, _ := buildRandomTree(t, rand.New(rand.NewSource(11)), 200, Options{MaxEntries: 8, BufferPages: 64})
	root, err := tree.nodes.Read(tree.root)
	if err != nil {
		t.Fatal(err)
	}
	if root.leaf {
		t.Fatal("the root is a leaf; the test needs a directory page")
	}
	for i := range root.entries {
		root.entries[i].ref |= 1 << 32
	}
	if err := tree.nodes.Write(root); err != nil {
		t.Fatal(err)
	}

	all := geom.Box3{Min: [3]float64{0, 0, 0}, Max: [3]float64{2, 2, 2}}
	searches := map[string]error{
		"box":     tree.Search(all, func(geom.Box3, uint64) bool { return true }),
		"nearest": tree.NearestSearch(0.5, 0.5, root.entries[0].box.Min[2], func(float64, uint64) bool { return true }),
	}
	for name, err := range searches {
		if err == nil || !strings.Contains(err.Error(), "not a page id") {
			t.Errorf("%s search over a child reference with high bits set: err = %v, want a corrupt-structure error", name, err)
		}
	}
}
