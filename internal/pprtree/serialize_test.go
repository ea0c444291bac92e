package pprtree

import (
	"math/rand"
	"testing"

	"stindex/internal/geom"
)

func TestTreeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := randRecords(rng, 800, 200)
	orig, err := BuildRecords(Options{MaxEntries: 10, BufferPages: 64}, recs)
	if err != nil {
		t.Fatal(err)
	}
	loaded := readTree(t, treeImage(t, orig))
	if loaded.Len() != orig.Len() || loaded.Alive() != orig.Alive() ||
		loaded.Now() != orig.Now() || loaded.NumRoots() != orig.NumRoots() ||
		loaded.Height() != orig.Height() {
		t.Fatalf("state differs after reload")
	}
	if _, err := loaded.Validate(); err != nil {
		t.Fatalf("loaded tree invalid: %v", err)
	}
	for qi := 0; qi < 40; qi++ {
		q := randQuery(rng)
		at := rng.Int63n(200)
		a, err := orig.CountSnapshot(q, at)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.CountSnapshot(q, at)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d: %d vs %d results after reload", qi, a, b)
		}
	}
	// A reloaded tree keeps accepting chronological updates.
	if err := loaded.Insert(geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}, 9999, loaded.Now()+1); err != nil {
		t.Fatalf("insert after reload: %v", err)
	}
	if _, err := loaded.Validate(); err != nil {
		t.Fatalf("invalid after post-reload insert: %v", err)
	}
}

func TestOnlineTreeRoundTrip(t *testing.T) {
	tree, err := New(Options{MaxEntries: 8, BufferPages: 32}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.EnableExpansion(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	rects := make([]geom.Rect, 60)
	for i := range rects {
		x, y := rng.Float64(), rng.Float64()
		rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + 0.02, MaxY: y + 0.02}
		if err := tree.Insert(rects[i], uint64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	loaded := readTree(t, treeImage(t, tree))
	// Expansion must still work after reload: the back references were
	// persisted.
	grown := rects[10].Union(geom.Rect{MinX: 0.9, MinY: 0.9, MaxX: 0.95, MaxY: 0.95})
	if err := loaded.ExpandAlive(rects[10], 10, grown, 60); err != nil {
		t.Fatalf("ExpandAlive after reload: %v", err)
	}
	if _, err := loaded.Validate(); err != nil {
		t.Fatalf("invalid after post-reload expansion: %v", err)
	}
	n, err := loaded.CountSnapshot(geom.Rect{MinX: 0.89, MinY: 0.89, MaxX: 0.96, MaxY: 0.96}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("expanded record not found at a historical instant")
	}
}
