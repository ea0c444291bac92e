// Package rsplit is the R* node split the three trees share: the PPR-tree's
// key split, the 3D R*-tree's overflow split and the HR-tree's, which
// differ only in their entry and box types.
//
// The split sorts each axis by lower and by upper bound, sums the margins
// of every candidate distribution of those orders, and takes the axis with
// the smallest sum; along it, the cut whose two groups overlap least, ties
// to the smaller total area (volume), earlier candidates first. Each order
// is an insertion sort of (first bound, second bound, index) keys, stable,
// so it equals slices.SortStableFunc with cmp.Compare only where no bound
// is NaN: under `<` a NaN is neither before nor after anything. The trees
// keep NaN out — Rect.Valid refuses it wherever records enter, Box3FromBox
// of a valid record carries none, and the page decoders accept only
// Ordered boxes — and −0 and +0 compare equal either way.
package rsplit

import "slices"

// Box is what a split asks of a bounding box; geom.Rect and geom.Box3
// provide it.
type Box[B any] interface {
	Union(B) B
	Margin() float64
	Overlap(B) float64
	Measure() float64 // area of a Rect, volume of a Box3
	Bounds(axis int) (lo, hi float64)
}

// Scratch is the arena a tree's splits of entries E with boxes B reuse:
// the entries' boxes, every axis's two sort orders, the prefix and suffix
// unions of the order being swept, and the winning order's entries. Its
// zero value is ready; it is not safe for concurrent use.
type Scratch[E interface{ Box() B }, B Box[B]] struct {
	boxes          []B
	orders         [3][2][]key // [axis][by upper bound]
	prefix, suffix []B
	groups         []E
}

// key is an entry's place in one order: its first and second bound on the
// axis, in comparison order, and its input index.
type key struct {
	first, second float64
	i             int
}

// Split partitions entries, at least two, over boxes of the given number
// of axes (at most three) into two groups of at least m each; m is
// clamped to [1, len(entries)/2]. The groups are views into the scratch,
// valid until its next split.
func (s *Scratch[E, B]) Split(entries []E, m, axes int) (g1, g2 []E) {
	n := len(entries)
	m = min(max(m, 1), n/2)
	s.boxes = slices.Grow(s.boxes[:0], n)
	for i := range entries {
		s.boxes = append(s.boxes, entries[i].Box())
	}

	axis, bestMargin := 0, 0.0
	for a := 0; a < axes; a++ {
		margin := 0.0
		for u := 0; u < 2; u++ {
			s.orders[a][u] = sortKeys(s.orders[a][u][:0], s.boxes, a, u == 1)
			s.sweep(s.orders[a][u], m)
			for k := m; k <= n-m; k++ {
				margin += s.prefix[k].Margin() + s.suffix[k].Margin()
			}
		}
		if a == 0 || margin < bestMargin {
			axis, bestMargin = a, margin
		}
	}

	var best []key
	bestK, bestOverlap, bestMeasure := -1, 0.0, 0.0
	for _, order := range s.orders[axis] {
		s.sweep(order, m)
		for k := m; k <= n-m; k++ {
			b1, b2 := s.prefix[k], s.suffix[k]
			overlap := b1.Overlap(b2)
			measure := b1.Measure() + b2.Measure()
			if bestK == -1 || overlap < bestOverlap || (overlap == bestOverlap && measure < bestMeasure) {
				best, bestK, bestOverlap, bestMeasure = order, k, overlap, measure
			}
		}
	}
	s.groups = slices.Grow(s.groups[:0], n)
	for _, k := range best {
		s.groups = append(s.groups, entries[k.i])
	}
	return s.groups[:bestK], s.groups[bestK:]
}

// sortKeys appends the boxes' keys to dst in stable order along axis by
// (lower, upper) bound, or by (upper, lower) when byUpper.
func sortKeys[B Box[B]](dst []key, boxes []B, axis int, byUpper bool) []key {
	dst = slices.Grow(dst, len(boxes))
	for i := range boxes {
		k := key{i: i}
		k.first, k.second = boxes[i].Bounds(axis)
		if byUpper {
			k.first, k.second = k.second, k.first
		}
		dst = append(dst, k)
		j := i
		for ; j > 0; j-- {
			p := &dst[j-1]
			if !(k.first < p.first || (k.first == p.first && k.second < p.second)) {
				break
			}
			dst[j] = *p
		}
		dst[j] = k
	}
	return dst
}

// sweep fills prefix[k] with the union of the first k boxes of order and
// suffix[k] with that of the rest, the two groups of the cut at k, for
// every cut m <= k <= len(order)-m.
func (s *Scratch[E, B]) sweep(order []key, m int) {
	n := len(order)
	s.prefix = slices.Grow(s.prefix[:0], n+1)[:n+1]
	s.suffix = slices.Grow(s.suffix[:0], n+1)[:n+1]
	boxes, prefix, suffix := s.boxes, s.prefix, s.suffix
	prefix[1] = boxes[order[0].i]
	suffix[n-1] = boxes[order[n-1].i]
	for i := 1; i < n-m; i++ {
		prefix[i+1] = prefix[i].Union(boxes[order[i].i])
		suffix[n-1-i] = suffix[n-i].Union(boxes[order[n-1-i].i])
	}
}
