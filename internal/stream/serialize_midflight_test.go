package stream

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"stindex/internal/geom"
)

// midflightFeed builds a deterministic observation schedule: nObj objects
// drifting across the unit square, each observed every instant of
// [start, horizon), some finishing early. Returned as (objID, t, rect)
// triples in global time order.
type midEvent struct {
	obj    int64
	t      int64
	rect   geom.Rect
	finish bool
}

func midflightFeed(nObj int, horizon int64, seed int64) []midEvent {
	rng := rand.New(rand.NewSource(seed))
	type traj struct {
		start, end int64
		x, y       float64
		dx, dy     float64
	}
	trajs := make([]traj, nObj)
	for i := range trajs {
		start := rng.Int63n(horizon / 2)
		end := start + 2 + rng.Int63n(horizon-start)
		if end > horizon {
			end = horizon
		}
		trajs[i] = traj{
			start: start, end: end,
			x: rng.Float64() * 0.9, y: rng.Float64() * 0.9,
			dx: (rng.Float64() - 0.5) * 0.02, dy: (rng.Float64() - 0.5) * 0.02,
		}
	}
	var out []midEvent
	for t := int64(0); t <= horizon; t++ {
		for i, tr := range trajs {
			id := int64(i + 1)
			if t == tr.end && tr.end < horizon {
				out = append(out, midEvent{obj: id, t: t, finish: true})
			}
			if t >= tr.start && t < tr.end {
				x := tr.x + float64(t-tr.start)*tr.dx
				y := tr.y + float64(t-tr.start)*tr.dy
				out = append(out, midEvent{obj: id, t: t, rect: geom.Rect{
					MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01,
				}})
			}
		}
	}
	// Finals before observes within an instant (delete-before-insert).
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].t != out[b].t {
			return out[a].t < out[b].t
		}
		return out[a].finish && !out[b].finish
	})
	return out
}

func applyMid(t *testing.T, ix *Indexer, evs []midEvent) {
	t.Helper()
	if err := applyEvents(ix, evs); err != nil {
		t.Fatalf("apply %v", err)
	}
}

func answersMid(t *testing.T, ix *Indexer, horizon int64) []string {
	t.Helper()
	var out []string
	for i := 0; i < 24; i++ {
		x := float64(i%6) * 0.15
		y := float64(i/6) * 0.2
		q := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.3, MaxY: y + 0.35}
		lo := int64(i) % horizon
		hi := lo + horizon/3 + 1
		ids, err := rangeIDs(ix, q, geom.Interval{Start: lo, End: hi})
		if err != nil {
			t.Fatalf("range: %v", err)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		out = append(out, fmt.Sprintf("r%d:%v", i, ids))
		snap, err := snapshotIDs(ix, q, lo)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		sort.Slice(snap, func(a, b int) bool { return snap[a] < snap[b] })
		out = append(out, fmt.Sprintf("s%d:%v", i, snap))
	}
	return out
}

// TestMidflightRoundTrip serialises an indexer while objects are still
// live, deserialises it, and checks the copy answers every query exactly
// like the original — the freezer snapshot-while-ingesting path.
func TestMidflightRoundTrip(t *testing.T) {
	const horizon = 40
	feed := midflightFeed(30, horizon, 7)
	cut := len(feed) / 2

	ix, err := New(Options{Lambda: 0.005}, 0)
	if err != nil {
		t.Fatal(err)
	}
	applyMid(t, ix, feed[:cut])
	if ix.Live() == 0 {
		t.Fatal("want live objects at the serialization point")
	}

	copyIx := readIndexer(t, indexerImage(t, ix))
	if copyIx.Live() != ix.Live() || copyIx.Records() != ix.Records() || copyIx.Cuts() != ix.Cuts() {
		t.Fatalf("state mismatch after round-trip: live %d/%d records %d/%d cuts %d/%d",
			copyIx.Live(), ix.Live(), copyIx.Records(), ix.Records(), copyIx.Cuts(), ix.Cuts())
	}
	want := answersMid(t, ix, horizon)
	got := answersMid(t, copyIx, horizon)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("mid-flight answer diverged: %s vs %s", want[i], got[i])
		}
	}
}

// TestMidflightRoundTripContinues replays the remaining feed through both
// the original and the deserialised copy: the copy must keep accepting
// observations (expansion back-refs survive the image) and end
// answer-identical, with the same piece set.
func TestMidflightRoundTripContinues(t *testing.T) {
	const horizon = 40
	feed := midflightFeed(30, horizon, 11)
	cut := len(feed) / 2

	ix, err := New(Options{Lambda: 0.005}, 0)
	if err != nil {
		t.Fatal(err)
	}
	applyMid(t, ix, feed[:cut])

	copyIx := readIndexer(t, indexerImage(t, ix))

	applyMid(t, ix, feed[cut:])
	applyMid(t, copyIx, feed[cut:])
	if err := ix.FinishAll(horizon + 1); err != nil {
		t.Fatal(err)
	}
	if err := copyIx.FinishAll(horizon + 1); err != nil {
		t.Fatal(err)
	}

	if copyIx.Records() != ix.Records() || copyIx.Cuts() != ix.Cuts() {
		t.Fatalf("continued state mismatch: records %d/%d cuts %d/%d",
			copyIx.Records(), ix.Records(), copyIx.Cuts(), ix.Cuts())
	}
	want := answersMid(t, ix, horizon)
	got := answersMid(t, copyIx, horizon)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("continued answer diverged: %s vs %s", want[i], got[i])
		}
	}

	// Piece-level equality: both indexes must have produced the exact
	// same lifetime pieces.
	wp, err := ix.Pieces()
	if err != nil {
		t.Fatal(err)
	}
	gp, err := copyIx.Pieces()
	if err != nil {
		t.Fatal(err)
	}
	key := func(r0 []string) { sort.Strings(r0) }
	ws := make([]string, len(wp))
	for i, p := range wp {
		ws[i] = fmt.Sprintf("%d:%v:%v", p.Ref, p.Rect, p.Interval)
	}
	gs := make([]string, len(gp))
	for i, p := range gp {
		gs[i] = fmt.Sprintf("%d:%v:%v", p.Ref, p.Rect, p.Interval)
	}
	key(ws)
	key(gs)
	if len(ws) != len(gs) {
		t.Fatalf("piece count diverged: %d vs %d", len(ws), len(gs))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("piece diverged: %s vs %s", ws[i], gs[i])
		}
	}
}
