package check

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
	"stindex/internal/pprtree"
)

// replayBatches returns two record batches a PPR-tree can take one after
// the other: every record of the first is closed by the boundary instant,
// every record of the second opens at or after it.
func replayBatches() (early, late []pprtree.Record) {
	const horizon, boundary = 200, 100
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 2500; i++ {
		x, y := rng.Float64(), rng.Float64()
		start := rng.Int63n(horizon - 1)
		r := pprtree.Record{
			Rect:     geom.Rect{MinX: x, MinY: y, MaxX: x + 0.02, MaxY: y + 0.02},
			Interval: geom.Interval{Start: start, End: min(start+1+rng.Int63n(horizon/4), horizon)},
			Ref:      uint64(i),
		}
		switch {
		case r.Interval.End <= boundary:
			early = append(early, r)
		case r.Interval.Start >= boundary:
			late = append(late, r)
		}
	}
	return early, late
}

// TestReplayFailStop: a replay (BuildRecords, AppendRecords) keeps its live
// nodes in a write-back table, so when a page write fails part-way the
// pages are older than what the replay had applied. The tree must return
// the error and from then on refuse every update, query and
// serialisation — on the tree and on a view of it, and also once the
// store is healthy again — rather than answer from those pages.
func TestReplayFailStop(t *testing.T) {
	early, late := replayBatches()
	all := append(append([]pprtree.Record{}, early...), late...)
	opts := pprtree.Options{MaxEntries: 12}

	// replayOver runs one replay over a fault store. "build" is
	// BuildRecords' own sequence — New, then one replay of everything —
	// with the store wrapped in between (BuildRecords itself hands a
	// failed tree to nobody); "append" is a healthy built tree taking a
	// second batch.
	replayOver := func(target string, sched string) (*pprtree.Tree, *FaultStore, error) {
		var tree *pprtree.Tree
		var err error
		batch := all
		if target == "build" {
			tree, err = pprtree.New(opts, 0)
		} else {
			tree, err = pprtree.BuildRecords(opts, early)
			batch = late
		}
		if err != nil {
			t.Fatal(err)
		}
		fs := NewFaultStore(tree.Store(), MustSchedule(sched))
		if err := tree.AttachStore(fs); err != nil {
			t.Fatal(err)
		}
		return tree, fs, tree.AppendRecords(batch)
	}
	image := func(tree *pprtree.Tree) []byte {
		var buf bytes.Buffer
		if _, err := tree.WriteMeta(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := pagefile.WriteExtent(&buf, tree.Store(), pagefile.LayoutPPR); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want, err := pprtree.BuildRecords(opts, all)
	if err != nil {
		t.Fatal(err)
	}

	everywhere := geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}
	probe := geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.52, MaxY: 0.52}
	for _, target := range []string{"build", "append"} {
		// A healthy pass counts the replay's page writes (dying nodes as
		// they die, then the flush) and must leave the same tree as a
		// plain BuildRecords.
		tree, fs, err := replayOver(target, "write@4000000000")
		if err != nil {
			t.Fatalf("%s: healthy replay: %v", target, err)
		}
		if !bytes.Equal(image(tree), image(want)) {
			t.Fatalf("%s: replay over the fault store built a different tree", target)
		}
		_, writes, _ := fs.Ops()

		for _, sched := range []string{
			"write@1",                          // the first node to die
			fmt.Sprintf("write@%d", writes/2),  // mid-replay
			fmt.Sprintf("write@%d", writes),    // the last write of the flush
			fmt.Sprintf("torn@%d", writes-1),   // a torn page in the flush
			fmt.Sprintf("write/%d", writes/10), // and a store that keeps failing
		} {
			name := target + "/" + sched
			tree, fs, err := replayOver(target, sched)
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("%s: replay returned %v, want the injected fault", name, err)
			}
			view := tree.QueryView()
			fs.Disarm() // a later healthy store must not un-poison the tree
			refusals := map[string]error{
				"Insert":        tree.Insert(probe, 1<<40, 1000),
				"AppendRecords": tree.AppendRecords(nil),
				"Touch":         tree.Touch(1000),
				"NearestSearch": tree.NearestSearch(0.5, 0.5, 150, func(float64, uint64) bool { return true }),
			}
			_, refusals["Delete"] = tree.Delete(late[0].Rect, late[0].Ref, 1000)
			all := func(geom.Rect, uint64) bool { return true }
			refusals["SnapshotSearch"] = tree.SnapshotSearch(everywhere, 150, all)
			refusals["IntervalSearch"] = tree.IntervalSearch(everywhere, geom.Interval{Start: 0, End: 200}, all)
			refusals["view.SnapshotSearch"] = view.SnapshotSearch(everywhere, 150, all)
			_, refusals["Validate"] = tree.Validate()
			_, refusals["WriteMeta"] = tree.WriteMeta(&bytes.Buffer{})
			for op, err := range refusals {
				if !errors.Is(err, ErrInjected) {
					t.Errorf("%s: %s after the failed replay returned %v, want the replay's failure", name, op, err)
				}
			}
		}
	}
}

// TestBatchFailStop: the bracket an ingest commit group runs in
// (Tree.Batch, here over an online-mode tree whose records grow) is
// fail-stop the same way a replay is. A store failing the k-th page write
// inside a bracket — a node written as it dies, a historical parent
// repaired by an expansion, or a page of the closing flush — or the
// bracket's own function failing poisons the tree: the bracket returns
// the failure and so does every later update, bracket, query, validation
// and serialisation.
func TestBatchFailStop(t *testing.T) {
	type piece struct {
		rect geom.Rect
		ref  uint64
	}
	// warm builds a healthy online tree, then bracket applies one more
	// group of inserts, expansions and deletes to it.
	warm := func() (*pprtree.Tree, []piece) {
		tree, err := pprtree.New(pprtree.Options{MaxEntries: 8}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.EnableExpansion(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		var alive []piece
		for i := 0; i < 600; i++ {
			x, y := rng.Float64(), rng.Float64()
			p := piece{geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}, uint64(i)}
			if err := tree.Insert(p.rect, p.ref, int64(i/20)); err != nil {
				t.Fatal(err)
			}
			alive = append(alive, p)
		}
		return tree, alive
	}
	bracket := func(tree *pprtree.Tree, alive []piece, fail error) error {
		return tree.Batch(func() error {
			for i, p := range alive[:200] {
				grown := geom.Rect{MinX: p.rect.MinX - 0.01, MinY: p.rect.MinY, MaxX: p.rect.MaxX, MaxY: p.rect.MaxY + 0.01}
				if err := tree.ExpandAlive(p.rect, p.ref, grown, 40); err != nil {
					return err
				}
				if i%2 == 0 {
					if _, err := tree.Delete(grown, p.ref, 40); err != nil {
						return err
					}
				}
				if err := tree.Insert(p.rect, 1<<20+p.ref, 40); err != nil {
					return err
				}
			}
			return fail
		})
	}

	tree, alive := warm()
	fs := NewFaultStore(tree.Store(), MustSchedule("write@4000000000"))
	if err := tree.AttachStore(fs); err != nil {
		t.Fatal(err)
	}
	if err := bracket(tree, alive, nil); err != nil {
		t.Fatalf("healthy bracket: %v", err)
	}
	if _, err := tree.Validate(); err != nil {
		t.Fatalf("healthy bracket left an invalid tree: %v", err)
	}
	_, writes, _ := fs.Ops()
	if writes < 10 {
		t.Fatalf("the bracket made %d page writes; the schedules below need more", writes)
	}

	ownFailure := errors.New("the bracket's function failed")
	everywhere := geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}
	for _, sched := range []string{
		"write@1",
		fmt.Sprintf("write@%d", writes/2),
		fmt.Sprintf("write@%d", writes), // the last page of the flush
		"",                              // no store fault: the function itself fails
	} {
		tree, alive := warm()
		want := error(ErrInjected)
		var fn error
		if sched == "" {
			want, fn = ownFailure, ownFailure
		} else {
			fs = NewFaultStore(tree.Store(), MustSchedule(sched))
			if err := tree.AttachStore(fs); err != nil {
				t.Fatal(err)
			}
		}
		if err := bracket(tree, alive, fn); !errors.Is(err, want) {
			t.Fatalf("%q: bracket returned %v, want %v", sched, err, want)
		}
		fs.Disarm() // a later healthy store must not un-poison the tree
		last := alive[len(alive)-1]
		refusals := map[string]error{
			"Insert":      tree.Insert(last.rect, 1<<40, 1000),
			"ExpandAlive": tree.ExpandAlive(last.rect, last.ref, everywhere, 1000),
			"Touch":       tree.Touch(1000),
			"Batch":       tree.Batch(func() error { return nil }),
		}
		_, refusals["Delete"] = tree.Delete(last.rect, last.ref, 1000)
		refusals["SnapshotSearch"] = tree.SnapshotSearch(everywhere, 30, func(geom.Rect, uint64) bool { return true })
		_, refusals["Validate"] = tree.Validate()
		_, refusals["WriteMeta"] = tree.WriteMeta(&bytes.Buffer{})
		for op, err := range refusals {
			if !errors.Is(err, want) {
				t.Errorf("%q: %s after the failed bracket returned %v, want the bracket's failure", sched, op, err)
			}
		}
	}
}
