package rsplit

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stindex/internal/geom"
)

// rect and box are 2-D and 3-D test entries; id tells apart entries with
// equal boxes, so any reordering of ties shows.
type rect struct {
	r  geom.Rect
	id int
}

type box struct {
	b  geom.Box3
	id int
}

func (e rect) Box() geom.Rect { return e.r }
func (e box) Box() geom.Box3  { return e.b }

// entry is what Scratch asks of its entry type.
type entry[B any] interface{ Box() B }

// tieValues are the coordinates tie-heavy entries are drawn from: equal
// keys are common, and −0 and +0 are equal but distinct.
var tieValues = []float64{-1, math.Copysign(0, -1), 0, 0.25, 0.5, 1}

// bounds draws an ordered pair of coordinates, from tieValues when ties,
// else uniform in [0, 1).
func bounds(rng *rand.Rand, ties bool) (lo, hi float64) {
	a, b := rng.Float64(), rng.Float64()
	if ties {
		a, b = tieValues[rng.Intn(len(tieValues))], tieValues[rng.Intn(len(tieValues))]
	}
	return min(a, b), max(a, b)
}

func rects(rng *rand.Rand, n int, ties bool) []rect {
	es := make([]rect, n)
	for i := range es {
		e := rect{id: i}
		e.r.MinX, e.r.MaxX = bounds(rng, ties)
		e.r.MinY, e.r.MaxY = bounds(rng, ties)
		es[i] = e
	}
	return es
}

func boxes(rng *rand.Rand, n int, ties bool) []box {
	es := make([]box, n)
	for i := range es {
		e := box{id: i}
		for d := 0; d < 3; d++ {
			e.b.Min[d], e.b.Max[d] = bounds(rng, ties)
		}
		es[i] = e
	}
	return es
}

// refSort is one order of the split as slices.SortStableFunc over the
// entries: along axis by (lower, upper) bound, or (upper, lower) when
// byUpper.
func refSort[E entry[B], B Box[B]](entries []E, axis int, byUpper bool) []E {
	sorted := slices.Clone(entries)
	slices.SortStableFunc(sorted, func(a, b E) int {
		la, ha := a.Box().Bounds(axis)
		lb, hb := b.Box().Bounds(axis)
		if byUpper {
			return cmp.Or(cmp.Compare(ha, hb), cmp.Compare(la, lb))
		}
		return cmp.Or(cmp.Compare(la, lb), cmp.Compare(ha, hb))
	})
	return sorted
}

// refUnion is the union of the boxes of a non-empty group, folded afresh.
func refUnion[E entry[B], B Box[B]](group []E) B {
	u := group[0].Box()
	for _, e := range group[1:] {
		u = u.Union(e.Box())
	}
	return u
}

// refSplit is the R* split as its definition reads: the axis whose
// distributions, over both orders, have the least margin sum, then the
// distribution along it with the least overlap, ties to the least total
// measure, the first such in order.
func refSplit[E entry[B], B Box[B]](entries []E, m, axes int) (g1, g2 []E) {
	n := len(entries)
	m = max(m, 1)
	m = min(m, n/2)
	bestAxis, bestMargin := 0, math.Inf(1)
	for a := 0; a < axes; a++ {
		margin := 0.0
		for _, byUpper := range []bool{false, true} {
			sorted := refSort(entries, a, byUpper)
			for k := m; k <= n-m; k++ {
				margin += refUnion(sorted[:k]).Margin() + refUnion(sorted[k:]).Margin()
			}
		}
		if margin < bestMargin {
			bestAxis, bestMargin = a, margin
		}
	}
	found := false
	var bestOverlap, bestMeasure float64
	for _, byUpper := range []bool{false, true} {
		sorted := refSort(entries, bestAxis, byUpper)
		for k := m; k <= n-m; k++ {
			b1, b2 := refUnion(sorted[:k]), refUnion(sorted[k:])
			overlap, measure := b1.Overlap(b2), b1.Measure()+b2.Measure()
			if !found || overlap < bestOverlap || (overlap == bestOverlap && measure < bestMeasure) {
				found, bestOverlap, bestMeasure = true, overlap, measure
				g1, g2 = sorted[:k], sorted[k:]
			}
		}
	}
	return g1, g2
}

// checkSplits splits entries with every m from below the lower clamp to
// above the upper one, and holds each result to refSplit.
func checkSplits[E entry[B], B Box[B]](t *testing.T, s *Scratch[E, B], entries []E, axes int, id func(E) int) {
	t.Helper()
	n := len(entries)
	sameIDs := func(a, b E) bool { return id(a) == id(b) }
	for _, m := range []int{-1, 0, 1, n * 2 / 5, n / 2, n/2 + 1, n} {
		got1, got2 := s.Split(entries, m, axes)
		want1, want2 := refSplit(entries, m, axes)
		if !slices.EqualFunc(got1, want1, sameIDs) || !slices.EqualFunc(got2, want2, sameIDs) {
			t.Fatalf("%d-D n=%d m=%d: groups %d+%d differ from the reference's %d+%d",
				axes, n, m, len(got1), len(got2), len(want1), len(want2))
		}
	}
}

// TestSplitMatchesReference holds the split to refSplit on 2-D and 3-D
// entries, tie-heavy and uniform, for every size from two entries to a
// default PPR-tree node plus one, with one scratch reused throughout.
func TestSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var s2 Scratch[rect, geom.Rect]
	var s3 Scratch[box, geom.Box3]
	for n := 2; n <= 51; n++ {
		for trial := 0; trial < 8; trial++ {
			ties := trial%2 == 0
			checkSplits(t, &s2, rects(rng, n, ties), 2, func(e rect) int { return e.id })
			checkSplits(t, &s3, boxes(rng, n, ties), 3, func(e box) int { return e.id })
		}
	}
}

// TestSortMatchesStableSort holds the key insertion sort to
// slices.SortStableFunc on every axis and both bound orders, for every
// size up to a default PPR-tree node plus one.
func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 0; n <= 51; n++ {
		for trial := 0; trial < 20; trial++ {
			entries := boxes(rng, n, true)
			var bs []geom.Box3
			for _, e := range entries {
				bs = append(bs, e.b)
			}
			for axis := 0; axis < 3; axis++ {
				for _, byUpper := range []bool{false, true} {
					keys := sortKeys(nil, bs, axis, byUpper)
					want := refSort(entries, axis, byUpper)
					if !slices.EqualFunc(keys, want, func(k key, e box) bool { return k.i == e.id }) {
						t.Fatalf("n=%d axis=%d byUpper=%v: order differs from the stable sort", n, axis, byUpper)
					}
				}
			}
		}
	}
}
