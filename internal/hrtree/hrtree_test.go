package hrtree

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"stindex/internal/geom"
)

type hrec struct {
	rect geom.Rect
	iv   geom.Interval
	ref  uint64
}

func randHRecords(rng *rand.Rand, n int, horizon int64) []hrec {
	recs := make([]hrec, n)
	for i := range recs {
		x, y := rng.Float64(), rng.Float64()
		w, h := rng.Float64()*0.02, rng.Float64()*0.02
		start := rng.Int63n(horizon - 1)
		end := start + 1 + rng.Int63n(horizon/4)
		if end > horizon {
			end = horizon
		}
		recs[i] = hrec{
			rect: geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h},
			iv:   geom.Interval{Start: start, End: end},
			ref:  uint64(i),
		}
	}
	return recs
}

// hrEvent is one record's insertion or deletion.
type hrEvent struct {
	t      int64
	insert bool
	rec    int
}

// hrEvents orders the records' events chronologically, deletions first
// per instant.
func hrEvents(recs []hrec) []hrEvent {
	var events []hrEvent
	for i, r := range recs {
		events = append(events, hrEvent{t: r.iv.Start, insert: true, rec: i})
		events = append(events, hrEvent{t: r.iv.End, insert: false, rec: i})
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return !events[a].insert && events[b].insert
	})
	return events
}

// applyHR applies one event.
func applyHR(tree *Tree, recs []hrec, ev hrEvent) error {
	r := recs[ev.rec]
	if ev.insert {
		return tree.Insert(r.rect, r.ref, ev.t)
	}
	ok, err := tree.Delete(r.rect, r.ref, ev.t)
	if err == nil && !ok {
		err = fmt.Errorf("record %d vanished before its deletion", ev.rec)
	}
	return err
}

// buildHR replays records chronologically, deletions first per instant.
func buildHR(t *testing.T, opts Options, recs []hrec) *Tree {
	t.Helper()
	events := hrEvents(recs)
	tree, err := New(opts, events[0].t)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := applyHR(tree, recs, ev); err != nil {
			t.Fatalf("event %+v: %v", ev, err)
		}
	}
	return tree
}

func TestHRTreeSnapshotMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const horizon = 150
	recs := randHRecords(rng, 600, horizon)
	tree := buildHR(t, Options{MaxEntries: 10, BufferPages: 64}, recs)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.NumVersions() < 50 {
		t.Fatalf("only %d versions for a %d-instant evolution", tree.NumVersions(), horizon)
	}
	for qi := 0; qi < 80; qi++ {
		x, y := rng.Float64()*0.8, rng.Float64()*0.8
		q := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.2*rng.Float64(), MaxY: y + 0.2*rng.Float64()}
		at := rng.Int63n(horizon)
		want := make(map[uint64]bool)
		for _, r := range recs {
			if r.iv.ContainsInstant(at) && r.rect.Intersects(q) {
				want[r.ref] = true
			}
		}
		got := make(map[uint64]bool)
		err := tree.SnapshotSearch(q, at, func(_ geom.Rect, ref uint64) bool {
			if got[ref] {
				t.Fatalf("duplicate ref %d", ref)
			}
			got[ref] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d at %d: got %d, want %d", qi, at, len(got), len(want))
		}
		for ref := range want {
			if !got[ref] {
				t.Fatalf("query %d: missing %d", qi, ref)
			}
		}
	}
}

func TestHRTreeIntervalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const horizon = 120
	recs := randHRecords(rng, 400, horizon)
	tree := buildHR(t, Options{MaxEntries: 10, BufferPages: 64}, recs)
	for qi := 0; qi < 60; qi++ {
		x, y := rng.Float64()*0.8, rng.Float64()*0.8
		q := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.25, MaxY: y + 0.25}
		start := rng.Int63n(horizon - 10)
		iv := geom.Interval{Start: start, End: start + 1 + rng.Int63n(30)}
		want := make(map[uint64]bool)
		for _, r := range recs {
			if r.iv.Overlaps(iv) && r.rect.Intersects(q) {
				want[r.ref] = true
			}
		}
		got := make(map[uint64]bool)
		err := tree.IntervalSearch(q, iv, func(_ geom.Rect, ref uint64) bool {
			if got[ref] {
				t.Fatalf("duplicate ref %d", ref)
			}
			got[ref] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d %v: got %d, want %d", qi, iv, len(got), len(want))
		}
	}
}

func TestHRTreeSharesUnchangedBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree, err := New(Options{MaxEntries: 10, BufferPages: 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Bulk at t=0, then a single small update per instant: the per-instant
	// page cost must stay near the path length, far below a full copy.
	for i := 0; i < 500; i++ {
		x, y := rng.Float64(), rng.Float64()
		r := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}
		if err := tree.Insert(r, uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	pagesBefore := tree.Store().NumPages()
	const updates = 50
	for i := 0; i < updates; i++ {
		x, y := rng.Float64(), rng.Float64()
		r := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}
		if err := tree.Insert(r, uint64(1000+i), int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	grown := tree.Store().NumPages() - pagesBefore
	// Each update copies about one root-to-leaf path (height ~3), never
	// the whole tree (~60 pages).
	if grown > updates*8 {
		t.Fatalf("overlapping tree grew %d pages for %d single updates — sharing is broken", grown, updates)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHRTreeDeleteMissing(t *testing.T) {
	tree, err := New(Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := tree.Delete(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("deleted a record that was never inserted")
	}
	if err := tree.Insert(geom.Rect{MinX: 0, MinY: 0, MaxX: 0.1, MaxY: 0.1}, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(geom.Rect{MinX: 0, MinY: 0, MaxX: 0.1, MaxY: 0.1}, 2, 3); err == nil {
		t.Fatal("accepted out-of-order update")
	}
}

func TestHRTreeOptionsValidation(t *testing.T) {
	for i, o := range []Options{
		{MaxEntries: 2},
		{MaxEntries: 50, MinEntries: 40},
		{MaxEntries: 900, PageSize: 4096},
	} {
		if _, err := New(o, 0); err == nil {
			t.Errorf("case %d: accepted invalid options", i)
		}
	}
}

func TestHNodeRoundTrip(t *testing.T) {
	n := &hnode{id: 5, leaf: true}
	for i := 0; i < 9; i++ {
		n.entries = append(n.entries, hentry{
			rect: geom.Rect{MinX: float64(i), MinY: 0, MaxX: float64(i) + 1, MaxY: 2},
			ref:  uint64(i * 3),
		})
	}
	got, err := decodeHNode(5, n.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.leaf != n.leaf || len(got.entries) != len(n.entries) {
		t.Fatal("round trip mismatch")
	}
	for i := range n.entries {
		if got.entries[i] != n.entries[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

// TestPrivatizedCopyHasRoomButNoOverfullWrite: the copy privatize makes
// of a shared node takes the update's next entry without growing, and the
// room does not let a node past its capacity onto a page.
func TestPrivatizedCopyHasRoomButNoOverfullWrite(t *testing.T) {
	tree, err := New(Options{MaxEntries: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := tree.Insert(geom.Rect{MinX: 0.1 * float64(i), MaxX: 0.1*float64(i) + 0.05, MaxY: 0.05}, uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	err = tree.Batch(func() error {
		if err := tree.advance(1); err != nil {
			return err
		}
		shared, err := tree.nodes.ReadShared(tree.current().page)
		if err != nil {
			return err
		}
		n, err := tree.privatize(shared)
		if err != nil {
			return err
		}
		if n.id == shared.id || len(n.entries) != 6 || cap(n.entries) < 7 {
			return fmt.Errorf("privatized copy: page %d of %d, %d entries, capacity %d", n.id, shared.id, len(n.entries), cap(n.entries))
		}
		for len(n.entries) <= tree.opts.MaxEntries {
			n.entries = append(n.entries, n.entries[0])
		}
		if err := tree.nodes.Write(n); err == nil || !strings.Contains(err.Error(), "exceeding capacity") {
			return fmt.Errorf("write of %d entries over capacity %d: %v", len(n.entries), tree.opts.MaxEntries, err)
		}
		n.entries = n.entries[:6]
		return tree.nodes.Write(n)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitAllocatesOnlyGroups: with the tree's split scratch warm, an
// overflow split allocates the sibling (its node and page) and the two
// groups that become node entries — its sorts and sweeps allocate nothing.
func TestSplitAllocatesOnlyGroups(t *testing.T) {
	tree, err := New(Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	entries := make([]hentry, tree.opts.MaxEntries+1)
	for i, r := range randHRecords(rng, len(entries), 100) {
		entries[i] = hentry{rect: r.rect, ref: r.ref}
	}
	n := &hnode{leaf: true}
	split := func() {
		n.entries = entries
		tree.splitNode(n)
	}
	split()
	if got := testing.AllocsPerRun(100, split); got > 4 {
		t.Fatalf("splitNode: %v allocs/op, want at most 4", got)
	}
}

// TestInsertDeleteAllocatesNothing holds the update path's scratch: in one
// bracket, at one instant, once the path to the probe's leaf is fresh and
// resident, an insert and the delete of the same record reuse the tree's
// path and allocate nothing.
func TestInsertDeleteAllocatesNothing(t *testing.T) {
	tree, err := New(Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, r := range randHRecords(rng, 2000, 100) {
		if err := tree.Insert(r.rect, r.ref, 0); err != nil {
			t.Fatal(err)
		}
	}
	const ref = 1 << 40
	err = tree.Batch(func() error {
		// A probe whose leaf neither splits on the insert nor dissolves
		// on the delete: a split or a reinsertion allocates by design.
		var probe geom.Rect
		for {
			x, y := rng.Float64(), rng.Float64()
			probe = geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}
			path, err := tree.choosePath(probe)
			if err != nil {
				return err
			}
			if n := len(path[len(path)-1].entries); n > tree.opts.MinEntries && n < tree.opts.MaxEntries {
				break
			}
		}
		var opErr error
		cycle := func() {
			if err := tree.Insert(probe, ref, 1); err != nil {
				opErr = err
				return
			}
			if ok, err := tree.Delete(probe, ref, 1); err != nil || !ok {
				opErr = fmt.Errorf("delete: ok=%v err=%v", ok, err)
			}
		}
		cycle() // the first cycle at instant 1 copies the path
		if got := testing.AllocsPerRun(100, cycle); got != 0 {
			return fmt.Errorf("insert+delete: %v allocs/op, want 0", got)
		}
		return opErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// CountSnapshot returns the matching record count at one instant.
func (t *Tree) CountSnapshot(query geom.Rect, at int64) (int, error) {
	c := 0
	err := t.SnapshotSearch(query, at, func(geom.Rect, uint64) bool { c++; return true })
	return c, err
}
