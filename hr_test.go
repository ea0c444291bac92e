package stindex

import (
	"math/rand"
	"sort"
	"testing"

	"stindex/internal/hrtree"
)

func TestHRIndexMatchesBruteForce(t *testing.T) {
	objs := genObjects(t, 300, 14)
	records, _, err := SplitDataset(objs, SplitConfig{Budget: 450})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := BuildHR(records)
	if err != nil {
		t.Fatal(err)
	}
	if err := hr.Tree().Validate(); err != nil {
		t.Fatalf("HR tree invalid: %v", err)
	}
	queries, err := GenerateQueries(QueryRangeSmall, 1000, 15)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries[:60] {
		want := bruteQuery(records, q)
		got, err := RunQuery(hr, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(got), want) {
			t.Fatalf("query %d: hr returned %d objects, brute force %d", qi, len(got), len(want))
		}
	}
	// The overlapping structure's storage dwarfs the multi-version one's.
	ppr, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hr.Pages() < ppr.Pages()*3 {
		t.Fatalf("HR %d pages vs PPR %d — expected the overlapping blowup", hr.Pages(), ppr.Pages())
	}
	if hr.Kind() != "hr" || hr.Records() != len(records) {
		t.Fatal("HR accessors wrong")
	}
	if _, err := BuildHR(nil); err == nil {
		t.Fatal("accepted empty records")
	}
}

// TestBuildHRMatchesStableSortReplay holds BuildHR to a replay in the
// order it took before it shared the PPR build's radix order: each
// record's insertion, then its deletion, in record order, sorted by
// sort.SliceStable on (time, deletions first). The records tie heavily
// (600 over 12 instants, every tenth never ends), and the two trees'
// pages and version roots must be equal.
func TestBuildHRMatchesStableSortReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	records := make([]Record, 600)
	for i := range records {
		x, y := rng.Float64(), rng.Float64()
		start := rng.Int63n(12)
		iv := Interval{Start: start, End: start + 1 + rng.Int63n(4)}
		if i%10 == 0 {
			iv.End = Now
		}
		records[i] = Record{Rect: Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}, Interval: iv, ObjectID: int64(i)}
	}
	got, err := BuildHR(records)
	if err != nil {
		t.Fatal(err)
	}

	type event struct {
		time   int64
		insert bool
		rec    int
	}
	var events []event
	for i, r := range records {
		events = append(events, event{time: r.Interval.Start, insert: true, rec: i})
		if r.Interval.End != Now {
			events = append(events, event{time: r.Interval.End, insert: false, rec: i})
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].time != events[b].time {
			return events[a].time < events[b].time
		}
		return !events[a].insert && events[b].insert
	})
	tree, err := hrtree.New(hrtree.Options{}, events[0].time)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		r := records[ev.rec]
		if ev.insert {
			err = tree.Insert(r.Rect.internal(), uint64(ev.rec), ev.time)
		} else {
			_, err = tree.Delete(r.Rect.internal(), uint64(ev.rec), ev.time)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	want := newHRIndex(tree, ownersOf(records))
	if g, w := pageImageDigest(t, got), pageImageDigest(t, want); g != w {
		t.Fatalf("BuildHR's pages %s, the stable-sort replay's %s", g, w)
	}
}
