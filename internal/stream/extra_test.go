package stream

import (
	"testing"

	"stindex/internal/geom"
	"stindex/internal/pprtree"
)

func TestObserveInvalidRect(t *testing.T) {
	ix, err := New(Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := geom.Rect{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}
	if err := ix.Observe(1, 0, bad); err == nil {
		t.Fatal("accepted inverted rect")
	}
}

func TestSnapshotDuringStream(t *testing.T) {
	ix, err := New(Options{Lambda: 1e9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.25, MaxY: 0.25}
	for tm := int64(0); tm < 20; tm++ {
		shift := float64(tm) * 0.01
		rr := geom.Rect{MinX: r.MinX + shift, MinY: r.MinY, MaxX: r.MaxX + shift, MaxY: r.MaxY}
		if err := ix.Observe(1, tm, rr); err != nil {
			t.Fatal(err)
		}
	}
	// The object is still live; past and present are queryable.
	ids, err := snapshotIDs(ix, geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.5, MaxY: 0.5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("mid-stream snapshot: %v", ids)
	}
	if ix.Live() != 1 {
		t.Fatalf("Live = %d", ix.Live())
	}
	// Range over the open piece.
	got, err := rangeIDs(ix, geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, geom.Interval{Start: 5, End: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("mid-stream range: %v", got)
	}
	// Pieces reports the open piece with an open interval.
	pieces, err := ix.Pieces()
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 1 || pieces[0].Interval.End != geom.Now {
		t.Fatalf("open piece not reported open: %+v", pieces)
	}
	if ix.Owner(pieces[0].Ref) != 1 {
		t.Fatalf("owner mapping broken")
	}
}

func TestStreamWithCustomTreeOptions(t *testing.T) {
	ix, err := New(Options{Lambda: 0.01, Tree: pprtree.Options{MaxEntries: 8, BufferPages: 32}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	objs := streamObjects(t, 120, 9)
	replay(t, ix, objs, 300)
	if _, err := ix.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	if ix.Tree().Options().MaxEntries != 8 {
		t.Fatal("tree options not applied")
	}
}

func TestStreamBadTreeOptions(t *testing.T) {
	if _, err := New(Options{Tree: pprtree.Options{MaxEntries: 2}}, 0); err == nil {
		t.Fatal("accepted invalid tree options")
	}
}
