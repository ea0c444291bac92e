package rstar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stindex/internal/geom"
)

// TestRandomOperationsModelCheck drives the tree with random inserts,
// cross-checking search results against a trivially correct map after
// every batch and validating the structural invariants at the end of
// each run.
func TestRandomOperationsModelCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree, err := New(Options{MaxEntries: 6 + r.Intn(6), BufferPages: 64})
		if err != nil {
			return false
		}
		model := make(map[uint64]geom.Box3)
		nextRef := uint64(0)
		for batch := 0; batch < 6; batch++ {
			for op := 0; op < 60; op++ {
				b := randBox3(r)
				if tree.Insert(b, nextRef) != nil {
					return false
				}
				model[nextRef] = b
				nextRef++
			}
			if tree.Len() != len(model) {
				return false
			}
			// Cross-check three random queries against the model.
			for q := 0; q < 3; q++ {
				query := randBox3(r)
				want := 0
				for _, b := range model {
					if b.Intersects(query) {
						want++
					}
				}
				got, err := tree.Count(query)
				if err != nil || got != want {
					return false
				}
			}
		}
		return tree.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchEarlyTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tree, _ := buildRandomTree(t, rng, 500, Options{MaxEntries: 8, BufferPages: 64})
	all := geom.Box3{Min: [3]float64{-1, -1, -1}, Max: [3]float64{3, 3, 3}}
	seen := 0
	err := tree.Search(all, func(geom.Box3, uint64) bool {
		seen++
		return seen < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Fatalf("early termination visited %d entries, want 10", seen)
	}
}

func TestLevelsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tree, _ := buildRandomTree(t, rng, 1500, Options{MaxEntries: 10, BufferPages: 64})
	levels, err := tree.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != tree.Height() {
		t.Fatalf("%d levels for height %d", len(levels), tree.Height())
	}
	if levels[0].Nodes != 1 {
		t.Fatalf("root level has %d nodes", levels[0].Nodes)
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].Nodes < levels[i-1].Nodes {
			t.Fatalf("level %d has fewer nodes (%d) than its parent level (%d)",
				i+1, levels[i].Nodes, levels[i-1].Nodes)
		}
		if len(levels[i].MBRs) != levels[i].Nodes {
			t.Fatalf("level %d MBR count mismatch", i+1)
		}
	}
}
