package stindex

import (
	"strings"
	"testing"
)

// freshCore returns idx behind a query core of its own — a query view —
// so its answers owe nothing to earlier queries.
func freshCore(t *testing.T, idx Index) Index {
	t.Helper()
	return idx.QueryView()
}

// cutOwners makes the index's owner table miss the reference of its last
// record — what a mismatched or corrupt image looks like to the query
// core — and returns the undo. The short table is a copy, so other views
// of the index keep the full one.
func cutOwners(t *testing.T, idx Index) (restore func()) {
	t.Helper()
	short := func(c *treeIndex) func() {
		full := c.owners
		cut := *full
		cut.Ord = cut.Ord[:len(cut.Ord)-1]
		c.owners = &cut
		return func() { c.owners = full }
	}
	switch x := idx.(type) {
	case *PPRIndex:
		return short(&x.treeIndex)
	case *RStarIndex:
		return short(&x.treeIndex)
	case *HRIndex:
		return short(&x.treeIndex)
	case *StreamIndex:
		return short(&x.treeIndex)
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

// TestAnswersAscendingOverEveryNumbering covers the owner tables whose
// ordinals are not handed out in id order as records arrive: every window
// answer must still be the distinct ids in ascending order, and every
// trajectory answer ascending with its pieces summed per object.
func TestAnswersAscendingOverEveryNumbering(t *testing.T) {
	everything := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	cell := func(k int64) Rect {
		x := 0.01 * float64(k%90)
		return Rect{MinX: x, MinY: x, MaxX: x + 0.01, MaxY: x + 0.01}
	}
	wantIDs := func(t *testing.T, step string, got []int64, err error, want []int64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !equalIDs(got, want) {
			t.Fatalf("%s: got %v, want %v", step, got, want)
		}
	}
	wantHits := func(t *testing.T, step string, got []TrajectoryHit, err error, want []TrajectoryHit) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: got %v, want %v", step, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: got %v, want %v", step, got, want)
			}
		}
	}

	t.Run("stream objects first seen in descending id order", func(t *testing.T) {
		six, err := NewStreamIndex(StreamOptions{Lambda: 1e9}, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Object 100-k lives over [k, k+10): ids appear descending.
		for tm := int64(0); tm < 60; tm++ {
			for k := max(0, tm-10); k <= min(tm, 49); k++ {
				if tm == k+10 {
					err = six.Finish(100-k, tm)
				} else {
					err = six.Observe(100-k, tm, cell(k))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if six.ix.Owners().Ascending {
			t.Fatal("the owner table follows ids; the case checks nothing")
		}
		var all, at20 []int64
		var hits []TrajectoryHit
		for id := int64(51); id <= 100; id++ {
			all = append(all, id)
			hits = append(hits, TrajectoryHit{ObjectID: id, Pieces: 1})
			if k := 100 - id; k > 10 && k <= 20 {
				at20 = append(at20, id)
			}
		}
		got, err := six.Range(everything, Interval{Start: 0, End: 100})
		wantIDs(t, "range", got, err, all)
		got, err = six.Snapshot(everything, 20)
		wantIDs(t, "snapshot", got, err, at20)
		traj, err := six.Trajectory(everything, Interval{Start: 0, End: 100})
		wantHits(t, "trajectory", traj, err, hits)
	})

	t.Run("stream object reappearing after Finish", func(t *testing.T) {
		six, err := NewStreamIndex(StreamOptions{Lambda: 1e9}, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Object 7 lives over [0, 5) and again over [10, 15); object 3
		// appears in between, so 7's second piece is cut after it.
		for tm := int64(0); tm < 15; tm++ {
			switch {
			case tm < 5 || tm >= 10:
				err = six.Observe(7, tm, cell(tm))
			case tm == 5:
				err = six.Finish(7, tm)
			}
			if err == nil && tm >= 6 {
				err = six.Observe(3, tm, cell(50))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		got, err := six.Range(everything, Interval{Start: 0, End: 20})
		wantIDs(t, "range", got, err, []int64{3, 7})
		got, err = six.Snapshot(everything, 7)
		wantIDs(t, "snapshot in the gap", got, err, []int64{3})
		traj, err := six.Trajectory(everything, Interval{Start: 0, End: 20})
		wantHits(t, "trajectory", traj, err, []TrajectoryHit{{ObjectID: 3, Pieces: 1}, {ObjectID: 7, Pieces: 2}})
	})

	t.Run("PPR Append interleaving the first chunk's ids", func(t *testing.T) {
		// The first chunk holds the even ids over [0, 10); the appended one
		// the odd ids, and a second piece of every fourth id, over [10, 20).
		var first, second []Record
		for id := int64(0); id < 40; id++ {
			r := Record{Rect: cell(id), ObjectID: id}
			if id%2 == 0 {
				r.Interval = Interval{Start: 0, End: 10}
				first = append(first, r)
			}
			if id%2 == 1 || id%4 == 0 {
				r.Interval = Interval{Start: 10, End: 20}
				second = append(second, r)
			}
		}
		ppr, err := BuildPPR(first, PPROptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ppr.Append(second); err != nil {
			t.Fatal(err)
		}
		var all, later []int64
		var hits []TrajectoryHit
		for id := int64(0); id < 40; id++ {
			all = append(all, id)
			pieces := 1
			if id%4 == 0 {
				pieces = 2
			}
			hits = append(hits, TrajectoryHit{ObjectID: id, Pieces: pieces})
			if id%2 == 1 || id%4 == 0 {
				later = append(later, id)
			}
		}
		for _, view := range []Index{ppr, ppr.QueryView()} {
			got, err := view.Range(everything, Interval{Start: 0, End: 20})
			wantIDs(t, "range", got, err, all)
			got, err = view.Snapshot(everything, 15)
			wantIDs(t, "snapshot after the append", got, err, later)
			traj, err := view.Trajectory(everything, Interval{Start: 0, End: 20})
			wantHits(t, "trajectory", traj, err, hits)
		}
	})
}
