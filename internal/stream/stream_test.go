package stream

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"stindex/internal/datagen"
	"stindex/internal/geom"
	"stindex/internal/pprtree"
	"stindex/internal/trajectory"
)

// snapshotIDs and rangeIDs answer object-level queries over an Indexer
// the way the stindex facade does: a tree search, every emitted reference
// resolved through OwnerRef, owners de-duplicated.
func snapshotIDs(ix *Indexer, q geom.Rect, at int64) ([]int64, error) {
	return ownerIDs(ix, func(emit func(geom.Rect, uint64) bool) error {
		return ix.Tree().SnapshotSearch(q, at, emit)
	})
}

func rangeIDs(ix *Indexer, q geom.Rect, iv geom.Interval) ([]int64, error) {
	return ownerIDs(ix, func(emit func(geom.Rect, uint64) bool) error {
		return ix.Tree().IntervalSearch(q, iv, emit)
	})
}

func ownerIDs(ix *Indexer, search func(emit func(geom.Rect, uint64) bool) error) ([]int64, error) {
	var ids []int64
	var dangling error
	seen := make(map[int64]bool)
	err := search(func(_ geom.Rect, ref uint64) bool {
		id, ok := ix.OwnerRef(ref)
		if !ok {
			dangling = fmt.Errorf("record ref %d has no owner", ref)
		} else if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
		return ok
	})
	if err == nil {
		err = dangling
	}
	return ids, err
}

// replay feeds a dataset to an indexer in strict time order.
func replay(t *testing.T, ix *Indexer, objs []*trajectory.Object, horizon int64) {
	t.Helper()
	type ev struct {
		t     int64
		obj   int
		final bool
	}
	var events []ev
	for i, o := range objs {
		for tm := o.Start(); tm < o.End(); tm++ {
			events = append(events, ev{t: tm, obj: i})
		}
		events = append(events, ev{t: o.End(), obj: i, final: true})
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		// Finishes before observations within an instant, mirroring the
		// offline replay's delete-before-insert ordering.
		return events[a].final && !events[b].final
	})
	for _, e := range events {
		o := objs[e.obj]
		if e.final {
			if err := ix.Finish(o.ID, e.t); err != nil {
				t.Fatalf("Finish(%d, %d): %v", o.ID, e.t, err)
			}
			continue
		}
		if err := ix.Observe(o.ID, e.t, o.At(e.t)); err != nil {
			t.Fatalf("Observe(%d, %d): %v", o.ID, e.t, err)
		}
	}
	_ = horizon
}

func streamObjects(t *testing.T, n int, seed int64) []*trajectory.Object {
	t.Helper()
	objs, err := datagen.Random(datagen.RandomConfig{N: n, Seed: seed, Horizon: 300, MaxLifetime: 60})
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

func TestStreamNoFalseNegatives(t *testing.T) {
	objs := streamObjects(t, 400, 1)
	ix, err := New(Options{Lambda: 0.02, Tree: pprtree.Options{MaxEntries: 10, BufferPages: 64}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	replay(t, ix, objs, 300)

	if _, err := ix.Tree().Validate(); err != nil {
		t.Fatalf("tree invalid after streaming: %v", err)
	}
	if ix.Live() != 0 {
		t.Fatalf("%d objects still live after replay", ix.Live())
	}
	if ix.Records() != len(objs)+ix.Cuts() {
		t.Fatalf("records %d != objects %d + cuts %d", ix.Records(), len(objs), ix.Cuts())
	}

	pieces, err := ix.Pieces()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for qi := 0; qi < 150; qi++ {
		x, y := rng.Float64()*0.8, rng.Float64()*0.8
		q := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.2*rng.Float64(), MaxY: y + 0.2*rng.Float64()}
		at := rng.Int63n(300)
		got, err := snapshotIDs(ix, q, at)
		if err != nil {
			t.Fatal(err)
		}
		gotSet := make(map[int64]bool, len(got))
		for _, id := range got {
			gotSet[id] = true
		}
		// Lower bound: every true-geometry match must be found.
		for _, o := range objs {
			if o.Lifetime().ContainsInstant(at) && o.At(at).Intersects(q) && !gotSet[o.ID] {
				t.Fatalf("query %d: object %d at %v intersects %v at t=%d but was not returned",
					qi, o.ID, o.At(at), q, at)
			}
		}
		// Upper bound: every result is justified by a final piece
		// rectangle covering the query instant.
		for _, id := range got {
			ok := false
			for _, p := range pieces {
				if ix.Owner(p.Ref) == id && p.Interval.ContainsInstant(at) && p.Rect.Intersects(q) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("query %d: object %d returned without a justifying piece", qi, id)
			}
		}
	}
}

func TestStreamPiecesTileLifetimes(t *testing.T) {
	objs := streamObjects(t, 200, 3)
	ix, err := New(Options{Lambda: 0.05, Tree: pprtree.Options{MaxEntries: 12, BufferPages: 64}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	replay(t, ix, objs, 300)
	pieces, err := ix.Pieces()
	if err != nil {
		t.Fatal(err)
	}
	byObj := make(map[int64][]pprtree.Record)
	for _, p := range pieces {
		byObj[ix.Owner(p.Ref)] = append(byObj[ix.Owner(p.Ref)], p)
	}
	for _, o := range objs {
		ps := byObj[o.ID]
		if len(ps) == 0 {
			t.Fatalf("object %d has no pieces", o.ID)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].Interval.Start < ps[j].Interval.Start })
		if ps[0].Interval.Start != o.Start() || ps[len(ps)-1].Interval.End != o.End() {
			t.Fatalf("object %d pieces span [%d,%d), lifetime %v",
				o.ID, ps[0].Interval.Start, ps[len(ps)-1].Interval.End, o.Lifetime())
		}
		for i := 1; i < len(ps); i++ {
			if ps[i].Interval.Start != ps[i-1].Interval.End {
				t.Fatalf("object %d pieces not contiguous: %v then %v", o.ID, ps[i-1].Interval, ps[i].Interval)
			}
		}
		// Every piece rectangle covers the object's geometry in its span.
		for _, p := range ps {
			for tm := p.Interval.Start; tm < p.Interval.End; tm++ {
				if !p.Rect.Contains(o.At(tm)) {
					t.Fatalf("object %d piece %v misses instant %d rect %v", o.ID, p, tm, o.At(tm))
				}
			}
		}
	}
}

func TestStreamLambdaControlsCuts(t *testing.T) {
	objs := streamObjects(t, 150, 5)
	cuts := make(map[float64]int)
	volume := make(map[float64]float64)
	for _, lambda := range []float64{0, 0.01, 1e9} {
		ix, err := New(Options{Lambda: lambda}, 0)
		if err != nil {
			t.Fatal(err)
		}
		replay(t, ix, objs, 300)
		pieces, err := ix.Pieces()
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, p := range pieces {
			total += p.Rect.Area() * float64(p.Interval.End-p.Interval.Start)
		}
		cuts[lambda] = ix.Cuts()
		volume[lambda] = total
	}
	if cuts[1e9] != 0 {
		t.Fatalf("huge lambda still cut %d times", cuts[1e9])
	}
	if cuts[0] <= cuts[0.01] {
		t.Fatalf("lambda 0 (%d cuts) should cut more than lambda 0.01 (%d)", cuts[0], cuts[0.01])
	}
	if volume[0] >= volume[1e9] {
		t.Fatalf("cutting should reduce volume: %g vs unsplit %g", volume[0], volume[1e9])
	}
	// The online rule should recover a large share of the offline gain.
	if volume[0.01] > 0.7*volume[1e9] {
		t.Fatalf("online splitting removed only %.0f%% of the volume",
			100*(1-volume[0.01]/volume[1e9]))
	}
}

func TestStreamErrors(t *testing.T) {
	if _, err := New(Options{Lambda: -1}, 0); err == nil {
		t.Fatal("accepted negative lambda")
	}
	ix, err := New(Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}
	if err := ix.Observe(1, 5, r); err != nil {
		t.Fatal(err)
	}
	if err := ix.Observe(1, 7, r); err == nil {
		t.Fatal("accepted a gap in observations")
	}
	if err := ix.Finish(2, 9); err == nil {
		t.Fatal("finished an unknown object")
	}
	if err := ix.Finish(1, 5); err == nil {
		t.Fatal("finished an object before its last observation")
	}
	if err := ix.Finish(1, 6); err != nil {
		t.Fatal(err)
	}
	// Reappearing later is allowed.
	if err := ix.Observe(1, 10, r); err != nil {
		t.Fatal(err)
	}
	if err := ix.FinishAll(11); err != nil {
		t.Fatal(err)
	}
	if ix.Records() != 2 {
		t.Fatalf("expected 2 pieces, got %d", ix.Records())
	}
}

func TestExpandAliveRequiresOnlineMode(t *testing.T) {
	tree, err := pprtree.New(pprtree.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := geom.Rect{MinX: 0, MinY: 0, MaxX: 0.1, MaxY: 0.1}
	if err := tree.Insert(r, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tree.ExpandAlive(r, 1, r, 1); err == nil {
		t.Fatal("ExpandAlive should require EnableExpansion")
	}
	if err := tree.EnableExpansion(); err == nil {
		t.Fatal("EnableExpansion should require an empty tree")
	}
}
