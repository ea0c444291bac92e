package stindex

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceMergeIDs is the union a k-way merge must reproduce: every id
// of every part, sorted and compacted.
func referenceMergeIDs(lists [][]int64) []int64 {
	var all []int64
	for _, ids := range lists {
		all = append(all, ids...)
	}
	if len(all) == 0 {
		return nil
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// referenceMergeTrajectories sums the parts' piece counts per object
// through a map and sorts the result by ObjectID.
func referenceMergeTrajectories(lists [][]TrajectoryHit) []TrajectoryHit {
	counts := make(map[int64]int)
	for _, hits := range lists {
		for _, h := range hits {
			counts[h.ObjectID] += h.Pieces
		}
	}
	if len(counts) == 0 {
		return nil
	}
	out := make([]TrajectoryHit, 0, len(counts))
	for id, n := range counts {
		out = append(out, TrajectoryHit{ObjectID: id, Pieces: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ObjectID < out[j].ObjectID })
	return out
}

// randomParts draws k strictly ascending id lists over a small universe,
// so ids repeat across lists. Some lists come out empty; k may be 1.
func randomParts(rng *rand.Rand) [][]int64 {
	k := 1 + rng.Intn(9)
	universe := 1 + rng.Intn(200)
	base := rng.Int63n(1<<40) - 1<<39
	lists := make([][]int64, k)
	for i := range lists {
		if rng.Intn(4) == 0 {
			continue // an empty part
		}
		keep := rng.Float64()
		for id := 0; id < universe; id++ {
			if rng.Float64() < keep {
				lists[i] = append(lists[i], base+int64(id))
			}
		}
	}
	return lists
}

func cloneParts[T any](lists [][]T) [][]T {
	out := make([][]T, len(lists))
	for i, l := range lists {
		out[i] = slices.Clone(l)
	}
	return out
}

// TestMergeIDsMatchesReference holds the k-way merge of ascending parts
// to the sort-and-compact union over random parts: duplicates across
// parts, empty parts, a single part, and no parts at all.
func TestMergeIDsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][][]int64{nil, {}, {nil}, {{}, {}}, {{3}}, {{1, 2, 3}, {1, 2, 3}}, {{}, {5, 9}, {}}}
	for i := 0; i < 2000; i++ {
		cases = append(cases, randomParts(rng))
	}
	for i, lists := range cases {
		want := referenceMergeIDs(cloneParts(lists))
		got := MergeIDs(cloneParts(lists)...)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d (%d parts): got %v, want %v", i, len(lists), got, want)
		}
	}
}

// TestMergeTrajectoriesMatchesReference holds the k-way merge of
// trajectory parts to the map-sum reference: piece counts of an object
// found in several parts add up.
func TestMergeTrajectoriesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		idParts := randomParts(rng)
		lists := make([][]TrajectoryHit, len(idParts))
		for p, ids := range idParts {
			for _, id := range ids {
				lists[p] = append(lists[p], TrajectoryHit{ObjectID: id, Pieces: 1 + rng.Intn(5)})
			}
		}
		want := referenceMergeTrajectories(cloneParts(lists))
		got := MergeTrajectories(cloneParts(lists)...)
		if len(got) != len(want) {
			t.Fatalf("case %d (%d parts): %d hits, want %d", i, len(lists), len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("case %d: hit %d is %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}
