package pprtree

import (
	"cmp"
	"slices"

	"stindex/internal/geom"
)

// keySplit partitions records into two spatially coherent groups, each of
// size at least m, using the R* split heuristic on the 2D rectangles:
// choose the axis with the smallest margin sum over candidate
// distributions, then the distribution with the least overlap (ties:
// least total area).
func keySplit(entries []pentry, m int) (g1, g2 []pentry) {
	if m < 1 {
		m = 1
	}
	if m > len(entries)/2 {
		m = len(entries) / 2
	}
	axis := chooseKeyAxis(entries, m)
	return chooseKeyIndex(entries, m, axis)
}

func sortPEntries(entries []pentry, axis int, byUpper bool) []pentry {
	out := make([]pentry, len(entries))
	copy(out, entries)
	key := func(e pentry) (lo, hi float64) {
		if axis == 0 {
			return e.rect.MinX, e.rect.MaxX
		}
		return e.rect.MinY, e.rect.MaxY
	}
	slices.SortStableFunc(out, func(a, b pentry) int {
		la, ha := key(a)
		lb, hb := key(b)
		if byUpper {
			return cmp.Or(cmp.Compare(ha, hb), cmp.Compare(la, lb))
		}
		return cmp.Or(cmp.Compare(la, lb), cmp.Compare(ha, hb))
	})
	return out
}

func forEachKeyDistribution(sorted []pentry, m int, fn func(k int, b1, b2 geom.Rect)) {
	n := len(sorted)
	prefix := make([]geom.Rect, n+1)
	suffix := make([]geom.Rect, n+1)
	prefix[0] = geom.EmptyRect()
	suffix[n] = geom.EmptyRect()
	for i := 0; i < n; i++ {
		prefix[i+1] = prefix[i].Union(sorted[i].rect)
		suffix[n-1-i] = suffix[n-i].Union(sorted[n-1-i].rect)
	}
	for k := m; k <= n-m; k++ {
		fn(k, prefix[k], suffix[k])
	}
}

func chooseKeyAxis(entries []pentry, m int) int {
	bestAxis, bestMargin := 0, 0.0
	for axis := 0; axis < 2; axis++ {
		margin := 0.0
		for _, byUpper := range [2]bool{false, true} {
			sorted := sortPEntries(entries, axis, byUpper)
			forEachKeyDistribution(sorted, m, func(_ int, b1, b2 geom.Rect) {
				margin += b1.Perimeter() + b2.Perimeter()
			})
		}
		if axis == 0 || margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}
	return bestAxis
}

func chooseKeyIndex(entries []pentry, m, axis int) (g1, g2 []pentry) {
	type best struct {
		sorted  []pentry
		k       int
		overlap float64
		area    float64
		set     bool
	}
	var b best
	for _, byUpper := range [2]bool{false, true} {
		sorted := sortPEntries(entries, axis, byUpper)
		forEachKeyDistribution(sorted, m, func(k int, b1, b2 geom.Rect) {
			overlap := b1.OverlapArea(b2)
			area := b1.Area() + b2.Area()
			if !b.set || overlap < b.overlap || (overlap == b.overlap && area < b.area) {
				b = best{sorted: sorted, k: k, overlap: overlap, area: area, set: true}
			}
		})
	}
	g1 = make([]pentry, b.k)
	copy(g1, b.sorted[:b.k])
	g2 = make([]pentry, len(b.sorted)-b.k)
	copy(g2, b.sorted[b.k:])
	return g1, g2
}
