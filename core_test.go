package stindex

import (
	"strings"
	"testing"

	"stindex/internal/stream"
)

// freshCore returns idx behind a query core of its own — a query view,
// or for the stream kind (which has none) a second facade over the same
// indexer — so its answers owe nothing to earlier queries.
func freshCore(t *testing.T, idx Index) Index {
	t.Helper()
	if six, ok := idx.(*StreamIndex); ok {
		return newStreamIndex(six.ix)
	}
	return idx.(QueryViewer).QueryView()
}

// cutOwners makes the index's owner table miss the references of its
// last records — what a mismatched or corrupt image looks like to the
// query core — and returns the undo.
func cutOwners(t *testing.T, idx Index) (restore func()) {
	t.Helper()
	short := func(c *treeIndex[recordOwners]) func() {
		full := c.owners
		c.owners = full[:len(full)-1]
		return func() { c.owners = full }
	}
	switch x := idx.(type) {
	case *PPRIndex:
		return short(&x.treeIndex)
	case *RStarIndex:
		return short(&x.treeIndex)
	case *HRIndex:
		return short(&x.treeIndex)
	case *HybridIndex:
		ppr, rstar := cutOwners(t, x.ppr), cutOwners(t, x.rstar)
		return func() { ppr(); rstar() }
	case *StreamIndex:
		// References are the indexer's to hand out, so the short table is
		// an indexer that has handed out none.
		full := x.owners
		empty, err := stream.New(stream.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		x.owners = empty
		return func() { x.owners = full }
	}
	t.Fatalf("cutOwners: unexpected index type %T", idx)
	return nil
}

// TestIDsScratchIsPerQuery asks different questions of one query core in
// a row. The owner set and the piece counts are borrowed from the core
// and cleared, not reallocated, so the failure to look for is a member
// left over from an earlier answer: it would silently drop that object
// from the next one. Every answer is compared with a fresh core's, order
// included — after a wide answer, after a query that failed half-way on a
// dangling reference, and across the window/trajectory pair.
func TestIDsScratchIsPerQuery(t *testing.T) {
	objs := genObjects(t, 300, 11)
	everything := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	narrow := Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}
	lt := objs[0].Lifetime()
	at := (lt.Start + lt.End) / 2
	for _, kind := range buildQueryTestKinds(t, objs) {
		sameIDs := func(step string, ask func(Index) ([]int64, error), view Index) {
			t.Helper()
			got, err := ask(view)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind.name, step, err)
			}
			want, err := ask(freshCore(t, kind.idx))
			if err != nil {
				t.Fatalf("%s/%s on a fresh core: %v", kind.name, step, err)
			}
			if len(want) == 0 {
				t.Fatalf("%s/%s: the query matches nothing, the step checks nothing", kind.name, step)
			}
			if !equalIDs(got, want) {
				t.Fatalf("%s/%s: %d ids after earlier queries on the same core, %d on a fresh one",
					kind.name, step, len(got), len(want))
			}
		}
		sameHits := func(step string, view Index) {
			t.Helper()
			iv := Interval{Start: at, End: at + 30}
			got, err := view.Trajectory(narrow, iv)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind.name, step, err)
			}
			want, err := freshCore(t, kind.idx).Trajectory(narrow, iv)
			if err != nil || len(want) == 0 {
				t.Fatalf("%s/%s on a fresh core: %d hits, %v", kind.name, step, len(want), err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d hits, fresh core %d", kind.name, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: hit %d is %+v, fresh core %+v", kind.name, step, i, got[i], want[i])
				}
			}
		}
		wide := func(x Index) ([]int64, error) { return x.Range(everything, Interval{Start: 0, End: 1 << 40}) }
		snapshot := func(x Index) ([]int64, error) { return x.Snapshot(narrow, at) }

		view := freshCore(t, kind.idx)
		sameIDs("wide range", wide, view)
		sameIDs("narrow snapshot after the wide range", snapshot, view)

		// A window over everything reaches the last record's reference,
		// which the cut table does not know — after the core has already
		// collected the owners of the references emitted before it.
		restore := cutOwners(t, view)
		for name, ask := range map[string]func() error{
			"range":      func() error { _, err := wide(view); return err },
			"trajectory": func() error { _, err := view.Trajectory(everything, Interval{Start: 0, End: 1 << 40}); return err },
		} {
			if err := ask(); err == nil || !strings.Contains(err.Error(), "has no owner among") {
				t.Fatalf("%s: %s over a short owner table returned %v, want the dangling-reference error", kind.name, name, err)
			}
		}
		restore()
		sameIDs("narrow snapshot after the failed range", snapshot, view)

		sameHits("trajectory after a snapshot", view)
		sameIDs("wide range after a trajectory", wide, view)
		sameHits("trajectory after a wide range", view)
	}
}
