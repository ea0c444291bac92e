package owner

import (
	"math/rand"
	"slices"
	"testing"
)

// TestByRankNumbersByID builds tables over object-major ascending,
// grouped-but-shuffled and scattered record orders: every record must
// resolve to its own object, and ordinal order must be id order.
func TestByRankNumbersByID(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sorted []int64
	for id := int64(-5); id < 60; id += 1 + rng.Int63n(3) {
		for p := rng.Intn(4); p >= 0; p-- {
			sorted = append(sorted, id)
		}
	}
	grouped := slices.Clone(sorted)
	slices.Reverse(grouped)
	scattered := slices.Clone(sorted)
	rng.Shuffle(len(scattered), func(i, j int) { scattered[i], scattered[j] = scattered[j], scattered[i] })
	for name, perRecord := range map[string][]int64{"sorted": sorted, "grouped": grouped, "scattered": scattered, "empty": nil} {
		tab := ByRank(len(perRecord), func(r int) int64 { return perRecord[r] })
		if !tab.Ascending || !slices.IsSorted(tab.IDs) || len(slices.Compact(slices.Clone(tab.IDs))) != len(tab.IDs) {
			t.Fatalf("%s: ids %v are not distinct and ascending", name, tab.IDs)
		}
		if tab.Records() != len(perRecord) {
			t.Fatalf("%s: %d records, want %d", name, tab.Records(), len(perRecord))
		}
		for r, want := range perRecord {
			if got, ok := tab.Owner(uint64(r)); !ok || got != want {
				t.Fatalf("%s: record %d owned by %d (%v), want %d", name, r, got, ok, want)
			}
		}
		if _, ok := tab.Owner(uint64(len(perRecord))); ok {
			t.Fatalf("%s: a reference past the table has an owner", name)
		}
	}
}

// TestNewObjectTracksOrder grows a table one object at a time: it stays
// Ascending while ids arrive in ascending order, and not after.
func TestNewObjectTracksOrder(t *testing.T) {
	var tab Table
	for _, id := range []int64{4, 9} {
		tab.Add(tab.NewObject(id))
	}
	if !tab.Ascending {
		t.Fatal("ascending arrivals cleared Ascending")
	}
	o := tab.NewObject(2)
	ref := tab.Add(o)
	tab.Add(0) // a second piece of object 4
	if tab.Ascending {
		t.Fatal("a smaller id kept Ascending")
	}
	if id, ok := tab.Owner(ref); !ok || id != 2 {
		t.Fatalf("ref %d owned by %d, want 2", ref, id)
	}
	if id, _ := tab.Owner(3); id != 4 || tab.Records() != 4 {
		t.Fatalf("second piece owned by %d among %d records", id, tab.Records())
	}
}
