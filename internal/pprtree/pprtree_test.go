package pprtree

import (
	"math/rand"
	"testing"

	"stindex/internal/geom"
)

// randRecords builds n records with random small rects and random
// lifetimes within [0, horizon).
func randRecords(rng *rand.Rand, n int, horizon int64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		x, y := rng.Float64(), rng.Float64()
		w, h := rng.Float64()*0.02, rng.Float64()*0.02
		start := rng.Int63n(horizon - 1)
		length := 1 + rng.Int63n(horizon/4)
		end := start + length
		if end > horizon {
			end = horizon
		}
		recs[i] = Record{
			Rect:     geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h},
			Interval: geom.Interval{Start: start, End: end},
			Ref:      uint64(i),
		}
	}
	return recs
}

func bruteSnapshot(recs []Record, q geom.Rect, at int64) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, r := range recs {
		if r.Interval.ContainsInstant(at) && r.Rect.Intersects(q) {
			out[r.Ref] = true
		}
	}
	return out
}

func bruteInterval(recs []Record, q geom.Rect, iv geom.Interval) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, r := range recs {
		if r.Interval.Overlaps(iv) && r.Rect.Intersects(q) {
			out[r.Ref] = true
		}
	}
	return out
}

func checkSnapshot(t *testing.T, tree *Tree, recs []Record, q geom.Rect, at int64) {
	t.Helper()
	want := bruteSnapshot(recs, q, at)
	got := make(map[uint64]bool)
	err := tree.SnapshotSearch(q, at, func(_ geom.Rect, ref uint64) bool {
		if got[ref] {
			t.Fatalf("snapshot t=%d: duplicate ref %d", at, ref)
		}
		got[ref] = true
		return true
	})
	if err != nil {
		t.Fatalf("SnapshotSearch: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot t=%d q=%v: got %d records, want %d", at, q, len(got), len(want))
	}
	for ref := range want {
		if !got[ref] {
			t.Fatalf("snapshot t=%d: missing ref %d", at, ref)
		}
	}
}

func checkInterval(t *testing.T, tree *Tree, recs []Record, q geom.Rect, iv geom.Interval) {
	t.Helper()
	want := bruteInterval(recs, q, iv)
	got := make(map[uint64]bool)
	err := tree.IntervalSearch(q, iv, func(_ geom.Rect, ref uint64) bool {
		if got[ref] {
			t.Fatalf("interval %v: duplicate ref %d", iv, ref)
		}
		got[ref] = true
		return true
	})
	if err != nil {
		t.Fatalf("IntervalSearch: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("interval %v q=%v: got %d records, want %d", iv, q, len(got), len(want))
	}
	for ref := range want {
		if !got[ref] {
			t.Fatalf("interval %v: missing ref %d", iv, ref)
		}
	}
}

func randQuery(rng *rand.Rand) geom.Rect {
	x, y := rng.Float64(), rng.Float64()
	w, h := rng.Float64()*0.2, rng.Float64()*0.2
	return geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

func TestBuildValidateSmallNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const horizon = 200
	recs := randRecords(rng, 800, horizon)
	tree, err := BuildRecords(Options{MaxEntries: 10, BufferPages: 64}, recs)
	if err != nil {
		t.Fatalf("BuildRecords: %v", err)
	}
	rep, err := tree.Validate()
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if rep.Nodes == 0 || rep.DeadNodes == 0 {
		t.Fatalf("expected both live and dead nodes, got %+v", rep)
	}
	if tree.Len() != 800 {
		t.Fatalf("Len = %d, want 800", tree.Len())
	}
	if tree.NumRoots() < 2 {
		t.Fatalf("expected multiple root spans, got %d", tree.NumRoots())
	}

	for qi := 0; qi < 60; qi++ {
		at := rng.Int63n(horizon)
		checkSnapshot(t, tree, recs, randQuery(rng), at)
	}
	for qi := 0; qi < 60; qi++ {
		start := rng.Int63n(horizon - 10)
		iv := geom.Interval{Start: start, End: start + 1 + rng.Int63n(40)}
		checkInterval(t, tree, recs, randQuery(rng), iv)
	}
}

func TestBuildValidateDefaultNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const horizon = 300
	recs := randRecords(rng, 3000, horizon)
	tree, err := BuildRecords(Options{}, recs)
	if err != nil {
		t.Fatalf("BuildRecords: %v", err)
	}
	if _, err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for qi := 0; qi < 40; qi++ {
		checkSnapshot(t, tree, recs, randQuery(rng), rng.Int63n(horizon))
	}
	for qi := 0; qi < 40; qi++ {
		start := rng.Int63n(horizon - 10)
		iv := geom.Interval{Start: start, End: start + 1 + rng.Int63n(50)}
		checkInterval(t, tree, recs, randQuery(rng), iv)
	}
}

func TestSnapshotBeforeHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := randRecords(rng, 50, 100)
	for i := range recs {
		recs[i].Interval.Start += 10 // history begins at 10
		recs[i].Interval.End += 10
	}
	tree, err := BuildRecords(Options{MaxEntries: 10}, recs)
	if err != nil {
		t.Fatal(err)
	}
	n, err := tree.CountSnapshot(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 5)
	if err != nil || n != 0 {
		t.Fatalf("snapshot before history: n=%d err=%v", n, err)
	}
}

func TestOutOfOrderUpdateRejected(t *testing.T) {
	tree, err := New(Options{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	r := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}
	if err := tree.Insert(r, 1, 150); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(r, 2, 120); err == nil {
		t.Fatal("expected out-of-order insert to fail")
	}
}

func TestDeleteMissingRecord(t *testing.T) {
	tree, err := New(Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := tree.Delete(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 42, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("deleted a record that was never inserted")
	}
}

func TestAliveTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	recs := randRecords(rng, 400, 150)
	tree, err := BuildRecords(Options{MaxEntries: 12}, recs)
	if err != nil {
		t.Fatal(err)
	}
	openAtEnd := 0
	for _, r := range recs {
		if r.Interval.End == geom.Now {
			openAtEnd++
		}
	}
	if tree.Alive() != openAtEnd {
		t.Fatalf("Alive = %d, want %d", tree.Alive(), openAtEnd)
	}
}

func TestQueryIOAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := randRecords(rng, 2000, 300)
	tree, err := BuildRecords(Options{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	tree.Buffer().Reset()
	if _, err := tree.CountSnapshot(randQuery(rng), 150); err != nil {
		t.Fatal(err)
	}
	st := tree.Buffer().Stats()
	if st.Reads == 0 {
		t.Fatal("snapshot query performed no reads")
	}
	if st.Writes != 0 {
		t.Fatalf("snapshot query performed %d writes", st.Writes)
	}
}

func TestPNodeRoundTrip(t *testing.T) {
	n := &pnode{id: 3, leaf: false, startT: 5, endT: geom.Now}
	for i := 0; i < 17; i++ {
		n.entries = append(n.entries, pentry{
			rect:    geom.Rect{MinX: float64(i), MinY: 1, MaxX: float64(i + 1), MaxY: 2},
			insertT: int64(i), deleteT: geom.Now, ref: uint64(i),
		})
	}
	buf := n.Encode(nil)
	got, err := decodePNode(3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.leaf != n.leaf || got.startT != n.startT || got.endT != n.endT || len(got.entries) != len(n.entries) {
		t.Fatalf("header mismatch: %+v vs %+v", got, n)
	}
	for i := range n.entries {
		if got.entries[i] != n.entries[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestOptionsValidationPPR(t *testing.T) {
	cases := []Options{
		{MaxEntries: 4},
		{PVersion: 0.5, PSvu: 0.4},        // PVersion > PSvu
		{PSvu: 0.9, PSvo: 0.8},            // PSvu >= PSvo
		{MaxEntries: 500, PageSize: 4096}, // does not fit
	}
	for i, o := range cases {
		if _, err := New(o, 0); err == nil {
			t.Errorf("case %d: New accepted invalid options %+v", i, o)
		}
	}
}

// CountSnapshot returns the number of records alive at t intersecting query.
func (t *Tree) CountSnapshot(query geom.Rect, at int64) (int, error) {
	c := 0
	err := t.SnapshotSearch(query, at, func(geom.Rect, uint64) bool { c++; return true })
	return c, err
}

// CountInterval returns the number of distinct records whose lifetime
// overlaps iv and whose rectangle intersects query.
func (t *Tree) CountInterval(query geom.Rect, iv geom.Interval) (int, error) {
	c := 0
	err := t.IntervalSearch(query, iv, func(geom.Rect, uint64) bool { c++; return true })
	return c, err
}
