package pprtree

import (
	"slices"

	"stindex/internal/geom"
)

// keySplitScratch is the arena a tree's key splits reuse: the records in
// both sort orders of both axes, the sort keys of the order being built,
// and the prefix and suffix MBRs of the order being swept. The groups a
// split returns are views into it, valid until the next split.
type keySplitScratch struct {
	orders         [2][2][]pentry // [axis][by upper bound]
	keys           []sortKey
	prefix, suffix []geom.Rect
}

// sortKey is one record's place in a key-split order: its first and
// second bound on the axis, in comparison order, and its input index.
type sortKey struct {
	first, second float64
	i             int
}

// keySplit partitions records into two spatially coherent groups, each of
// size at least m, using the R* split heuristic on the 2D rectangles:
// choose the axis with the smallest margin sum over candidate
// distributions, then the distribution with the least overlap (ties:
// least total area). Axis choice sorts each axis by lower and by upper
// bound; index choice reads the winning axis's two orders where axis
// choice left them.
func (s *keySplitScratch) keySplit(entries []pentry, m int) (g1, g2 []pentry) {
	n := len(entries)
	if m < 1 {
		m = 1
	}
	if m > n/2 {
		m = n / 2
	}
	axis, bestMargin := 0, 0.0
	for a := 0; a < 2; a++ {
		margin := 0.0
		for u := 0; u < 2; u++ {
			s.orders[a][u] = s.sortPEntries(s.orders[a][u][:0], entries, a, u == 1)
			s.sweep(s.orders[a][u])
			for k := m; k <= n-m; k++ {
				margin += s.prefix[k].Perimeter() + s.suffix[k].Perimeter()
			}
		}
		if a == 0 || margin < bestMargin {
			axis, bestMargin = a, margin
		}
	}

	var best []pentry
	bestK, bestOverlap, bestArea := -1, 0.0, 0.0
	for u := 0; u < 2; u++ {
		sorted := s.orders[axis][u]
		s.sweep(sorted)
		for k := m; k <= n-m; k++ {
			b1, b2 := s.prefix[k], s.suffix[k]
			overlap := b1.OverlapArea(b2)
			area := b1.Area() + b2.Area()
			if bestK == -1 || overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				best, bestK, bestOverlap, bestArea = sorted, k, overlap, area
			}
		}
	}
	return best[:bestK], best[bestK:]
}

// sortPEntries appends entries to dst stably sorted along axis by (lower,
// upper) bound, or by (upper, lower) when byUpper. A node holds at most
// MaxEntries+1 records, so it insertion-sorts their keys — two floats and
// an index, not the 56-byte entries — and gathers the entries once.
// Rect.Valid refuses NaN wherever rectangles enter, and without NaN `<`
// orders exactly as cmp.Compare does, −0 and +0 equal included.
func (s *keySplitScratch) sortPEntries(dst, entries []pentry, axis int, byUpper bool) []pentry {
	keys := slices.Grow(s.keys[:0], len(entries))
	dst = slices.Grow(dst, len(entries))
	for i := range entries {
		r := &entries[i].rect
		k := sortKey{first: r.MinX, second: r.MaxX, i: i}
		if axis == 1 {
			k.first, k.second = r.MinY, r.MaxY
		}
		if byUpper {
			k.first, k.second = k.second, k.first
		}
		keys = append(keys, k)
		j := i
		for ; j > 0; j-- {
			p := &keys[j-1]
			if !(k.first < p.first || (k.first == p.first && k.second < p.second)) {
				break
			}
			keys[j] = *p
		}
		keys[j] = k
	}
	for _, k := range keys {
		dst = append(dst, entries[k.i])
	}
	s.keys = keys
	return dst
}

// sweep fills prefix[k] with the MBR of sorted[:k] and suffix[k] with
// that of sorted[k:], the two groups of the distribution cut at k.
func (s *keySplitScratch) sweep(sorted []pentry) {
	n := len(sorted)
	s.prefix = slices.Grow(s.prefix[:0], n+1)[:n+1]
	s.suffix = slices.Grow(s.suffix[:0], n+1)[:n+1]
	s.prefix[0] = geom.EmptyRect()
	s.suffix[n] = geom.EmptyRect()
	for i := 0; i < n; i++ {
		s.prefix[i+1] = s.prefix[i].Union(sorted[i].rect)
		s.suffix[n-1-i] = s.suffix[n-i].Union(sorted[n-1-i].rect)
	}
}
