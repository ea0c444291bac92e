package stindex_test

import (
	"slices"
	"testing"

	stx "stindex"
)

// hybridRecords splits n random objects at a 150% budget.
func hybridRecords(t *testing.T, n int, seed int64) []stx.Record {
	t.Helper()
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: n * 3 / 2})
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// TestHybridMatchesComponents shows that routing by duration never
// changes an answer: both trees answer every query alike, so the rule
// only picks the cheaper traversal.
func TestHybridMatchesComponents(t *testing.T) {
	ppr, rst := buildHybridPair(t, hybridRecords(t, 400, 11))
	queries := []stx.Query{
		{Rect: stx.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.4, MaxY: 0.4}, Interval: stx.Interval{Start: 500, End: 501}},  // snapshot
		{Rect: stx.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.4, MaxY: 0.4}, Interval: stx.Interval{Start: 500, End: 515}},  // short
		{Rect: stx.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.4, MaxY: 0.4}, Interval: stx.Interval{Start: 400, End: 700}},  // long
		{Rect: stx.Rect{MinX: 0.0, MinY: 0.0, MaxX: 0.05, MaxY: 0.05}, Interval: stx.Interval{Start: 0, End: 1000}}, // whole horizon
	}
	answer := func(idx stx.Index, q stx.Query) []int64 {
		ids, err := stx.RunQuery(idx, q)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(ids)
		return ids
	}
	for qi, q := range queries {
		routed, p, r := answer(routeByDuration(ppr, rst, q.Interval), q), answer(ppr, q), answer(rst, q)
		if len(p) == 0 || !slices.Equal(routed, p) || !slices.Equal(routed, r) {
			t.Fatalf("query %d: routed %d objects, ppr %d, rstar %d", qi, len(routed), len(p), len(r))
		}
	}
}

// TestHybridRouting pins the rule's two directions: a short query reads
// only the PPR-tree, a long one only the R*-tree.
func TestHybridRouting(t *testing.T) {
	ppr, rst := buildHybridPair(t, hybridRecords(t, 300, 12))
	r := stx.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.5, MaxY: 0.5}
	for _, c := range []struct {
		name        string
		iv          stx.Interval
		read, spare stx.Index
	}{
		{"short", stx.Interval{Start: 500, End: 505}, ppr, rst},
		{"long", stx.Interval{Start: 100, End: 900}, rst, ppr},
	} {
		ppr.ResetBuffer()
		rst.ResetBuffer()
		if _, err := routeByDuration(ppr, rst, c.iv).Range(r, c.iv); err != nil {
			t.Fatal(err)
		}
		if c.spare.IOStats().Reads != 0 {
			t.Fatalf("%s query leaked into the %s tree", c.name, c.spare.Kind())
		}
		if c.read.IOStats().Reads == 0 {
			t.Fatalf("%s query did not touch the %s tree", c.name, c.read.Kind())
		}
	}
}
