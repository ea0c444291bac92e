package rstar

import (
	"math/rand"
	"testing"
)

func TestBulkLoadSTRValidatesAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 49, 50, 51, 60, 110, 210, 777, 2600, 9000} {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Box: randBox3(rng), Ref: uint64(i)}
		}
		tree, err := BulkLoadSTR(Options{}, items)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tree.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tree.Len())
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBulkLoadSTRQueriesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 3000
	items := make([]Item, n)
	data := make([]refBox, n)
	for i := range items {
		b := randBox3(rng)
		items[i] = Item{Box: b, Ref: uint64(i)}
		data[i] = refBox{box: b, ref: uint64(i)}
	}
	tree, err := BulkLoadSTR(Options{MaxEntries: 16, BufferPages: 64}, items)
	if err != nil {
		t.Fatal(err)
	}
	checkQueries(t, tree, data, rng, 50)
}

func TestBulkLoadSTRSupportsUpdatesAfterwards(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := make([]Item, 500)
	data := make([]refBox, 0, 600)
	for i := range items {
		b := randBox3(rng)
		items[i] = Item{Box: b, Ref: uint64(i)}
		data = append(data, refBox{box: b, ref: uint64(i)})
	}
	tree, err := BulkLoadSTR(Options{MaxEntries: 10, BufferPages: 64}, items)
	if err != nil {
		t.Fatal(err)
	}
	// A packed tree must remain a regular R*-tree: inserts keep working.
	for i := 500; i < 600; i++ {
		b := randBox3(rng)
		if err := tree.Insert(b, uint64(i)); err != nil {
			t.Fatal(err)
		}
		data = append(data, refBox{box: b, ref: uint64(i)})
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	checkQueries(t, tree, data, rng, 30)
}

func TestBulkLoadSTRRejectsEmptyBoxes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := []Item{{Box: randBox3(rng), Ref: 1}, {Ref: 2}} // second box empty
	items[1].Box.Min[0], items[1].Box.Max[0] = 1, 0
	if _, err := BulkLoadSTR(Options{}, items); err == nil {
		t.Fatal("accepted an empty box")
	}
}
