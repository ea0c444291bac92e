package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The search kernels Box3.Hits and Rect.Hits drop the emptiness tests of
// Intersects: a search checks its query once (AsQuery) and the node
// decoders refuse an entry that is not Ordered (ErrInvertedBox). These
// tests hold the kernels to Intersects over exactly that domain — every
// query, empty, inverted and NaN ones included, against every Ordered
// entry — in both argument orders of Intersects.

// searchEdgeValues are the coordinates the hand-picked intervals are
// built from: signed zeros, a touching value pair (0.25 against 0.25
// closes two faces onto each other), infinities and NaN.
var searchEdgeValues = []float64{
	math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.25, 1, math.Inf(1), math.NaN(),
}

// edgeIntervals returns every (lo, hi) pair of the edge values, and the
// Ordered ones among them: degenerate (lo == hi), touching and unbounded
// intervals.
func edgeIntervals() (all, ordered [][2]float64) {
	for _, lo := range searchEdgeValues {
		for _, hi := range searchEdgeValues {
			all = append(all, [2]float64{lo, hi})
			if lo <= hi {
				ordered = append(ordered, [2]float64{lo, hi})
			}
		}
	}
	return all, ordered
}

func checkBox3Hits(t *testing.T, q, e Box3) {
	t.Helper()
	if !e.Ordered() {
		t.Fatalf("entry %v is not Ordered", e)
	}
	probe := q.AsQuery()
	got, want := probe.Hits(&e), q.Intersects(e)
	if got != want || e.Intersects(q) != want {
		t.Fatalf("query %v, entry %v: Hits %v, Intersects %v/%v", q, e, got, want, e.Intersects(q))
	}
}

func checkRectHits(t *testing.T, q, e Rect) {
	t.Helper()
	if !e.Ordered() {
		t.Fatalf("entry %v is not Ordered", e)
	}
	probe := q.AsQuery()
	got, want := probe.Hits(&e), q.Intersects(e)
	if got != want || e.Intersects(q) != want {
		t.Fatalf("query %v, entry %v: Hits %v, Intersects %v/%v", q, e, got, want, e.Intersects(q))
	}
}

// TestRectHitsMatchesIntersectsOnEdges: every rectangle of edge intervals
// as the query against every Ordered one as the entry.
func TestRectHitsMatchesIntersectsOnEdges(t *testing.T) {
	all, ordered := edgeIntervals()
	for _, qx := range all {
		for _, qy := range all {
			q := Rect{MinX: qx[0], MaxX: qx[1], MinY: qy[0], MaxY: qy[1]}
			for _, ex := range ordered {
				for _, ey := range ordered {
					checkRectHits(t, q, Rect{MinX: ex[0], MaxX: ex[1], MinY: ey[0], MaxY: ey[1]})
				}
			}
		}
	}
}

// TestBox3HitsMatchesIntersectsOnEdges runs every edge interval on one
// axis of the query and every Ordered one on that axis of the entry, the
// other two axes drawn from a few intervals that overlap, miss, touch,
// invert or carry a NaN. Each axis takes its turn, the time axis (which
// Hits tests first) included.
func TestBox3HitsMatchesIntersectsOnEdges(t *testing.T) {
	all, ordered := edgeIntervals()
	nan := math.NaN()
	otherQ := [][2]float64{{0, 1}, {math.Inf(-1), math.Inf(1)}, {1, 1}, {1, 0}, {nan, 1}, {2, 3}}
	otherE := [][2]float64{{0, 0}, {0.25, 1}, {math.Inf(-1), math.Inf(1)}, {1, 2}}
	for d := 0; d < 3; d++ {
		for _, qd := range all {
			for _, ed := range ordered {
				for _, qo := range otherQ {
					for _, eo := range otherE {
						var q, e Box3
						for a := 0; a < 3; a++ {
							q.Min[a], q.Max[a] = qo[0], qo[1]
							e.Min[a], e.Max[a] = eo[0], eo[1]
						}
						q.Min[d], q.Max[d] = qd[0], qd[1]
						e.Min[d], e.Max[d] = ed[0], ed[1]
						checkBox3Hits(t, q, e)
					}
				}
			}
		}
	}
}

// TestHitsMatchesIntersectsRandom draws query coordinates from a small
// grid (so faces touch often), now and then swapped into an empty query
// or replaced by a NaN, against random Ordered entries on the same grid.
func TestHitsMatchesIntersectsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	coord := func() float64 { return float64(rng.Intn(9)) / 8 }
	queryAxis := func() (float64, float64) {
		lo, hi := coord(), coord()
		switch rng.Intn(8) {
		case 0:
			return math.NaN(), hi
		case 1:
			return lo, math.NaN()
		}
		return lo, hi // inverted about half the time
	}
	entryAxis := func() (float64, float64) {
		lo, hi := coord(), coord()
		return min(lo, hi), max(lo, hi)
	}
	for i := 0; i < 200000; i++ {
		var q, e Box3
		for d := 0; d < 3; d++ {
			q.Min[d], q.Max[d] = queryAxis()
			e.Min[d], e.Max[d] = entryAxis()
		}
		checkBox3Hits(t, q, e)
		checkRectHits(t,
			Rect{MinX: q.Min[0], MinY: q.Min[1], MaxX: q.Max[0], MaxY: q.Max[1]},
			Rect{MinX: e.Min[0], MinY: e.Min[1], MaxX: e.Max[0], MaxY: e.Max[1]})
	}
}

// TestAsQueryEmptyMatchesNothing: an empty query becomes one Hits fails
// on for every entry, the whole plane included; a non-empty one is kept
// bit for bit.
func TestAsQueryEmptyMatchesNothing(t *testing.T) {
	inf := math.Inf(1)
	everything3 := Box3{Min: [3]float64{-inf, -inf, -inf}, Max: [3]float64{inf, inf, inf}}
	everything := Rect{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}
	for _, q := range []Box3{EmptyBox3(), {Min: [3]float64{0, 0, 1}, Max: [3]float64{1, 1, 0}}} {
		probe := q.AsQuery()
		if probe.Hits(&everything3) {
			t.Fatalf("empty query %v hits the whole space", q)
		}
	}
	for _, q := range []Rect{EmptyRect(), {MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}} {
		probe := q.AsQuery()
		if probe.Hits(&everything) {
			t.Fatalf("empty query %v hits the whole plane", q)
		}
	}
	q3 := Box3{Min: [3]float64{math.Copysign(0, -1), 0, 0.25}, Max: [3]float64{0, 1, 0.25}}
	if got := q3.AsQuery(); got != q3 || !math.Signbit(got.Min[0]) {
		t.Fatalf("AsQuery(%v) = %v", q3, got)
	}
	q := Rect{MinX: 0, MinY: 0, MaxX: 0, MaxY: 1}
	if got := q.AsQuery(); got != q {
		t.Fatalf("AsQuery(%v) = %v", q, got)
	}
}

func TestOrdered(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		r    Rect
		want bool
	}{
		{Rect{}, true},
		{Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, true},
		{Rect{MinX: math.Inf(-1), MinY: 0, MaxX: math.Inf(1), MaxY: 0}, true},
		{Rect{MinX: 0, MinY: math.Copysign(0, -1), MaxX: 0, MaxY: 0}, true},
		{EmptyRect(), false},
		{Rect{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}, false},
		{Rect{MinX: 0, MinY: nan, MaxX: 1, MaxY: 1}, false},
		{Rect{MinX: 0, MinY: 0, MaxX: nan, MaxY: 1}, false},
	} {
		if got := c.r.Ordered(); got != c.want {
			t.Errorf("%v.Ordered() = %v, want %v", c.r, got, c.want)
		}
		b := Box3{Min: [3]float64{c.r.MinX, c.r.MinY, 0}, Max: [3]float64{c.r.MaxX, c.r.MaxY, 0}}
		if got := b.Ordered(); got != c.want {
			t.Errorf("%v.Ordered() = %v, want %v", b, got, c.want)
		}
		b = Box3{Min: [3]float64{0, 0, c.r.MinX}, Max: [3]float64{0, 0, c.r.MaxX}}
		if got, want := b.Ordered(), c.r.MinX <= c.r.MaxX; got != want {
			t.Errorf("%v.Ordered() = %v, want %v", b, got, want)
		}
	}
}
