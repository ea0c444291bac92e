package geom

import (
	"fmt"
	"math"
)

// Box3 is a 3-dimensional axis-parallel box over float coordinates. The 3D
// R*-tree treats time as a third spatial dimension: callers scale the
// discrete time axis into the unit range (the paper scales it "to the unit
// range first" before insertion) and store the result as Min[2]/Max[2].
type Box3 struct {
	Min, Max [3]float64
}

// EmptyBox3 returns the identity element for Union.
func EmptyBox3() Box3 {
	return Box3{
		Min: [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)},
		Max: [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
	}
}

// Box3FromBox converts a spatiotemporal box to a 3D float box, scaling the
// time axis by timeScale (typically 1/horizon so time lands in [0,1]).
// The half-open time interval [Start, End) maps to the closed float range
// [Start*s, End*s].
func Box3FromBox(b Box, timeScale float64) Box3 {
	return Box3{
		Min: [3]float64{b.MinX, b.MinY, float64(b.Start) * timeScale},
		Max: [3]float64{b.MaxX, b.MaxY, float64(b.End) * timeScale},
	}
}

// IsEmpty reports whether the box is inverted on any axis.
func (b Box3) IsEmpty() bool {
	for d := 0; d < 3; d++ {
		if b.Min[d] > b.Max[d] {
			return true
		}
	}
	return false
}

// Volume returns the product of the three extents.
func (b Box3) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	v := 1.0
	for d := 0; d < 3; d++ {
		v *= b.Max[d] - b.Min[d]
	}
	return v
}

// Measure returns the volume, as Rect.Measure returns the area.
func (b Box3) Measure() float64 { return b.Volume() }

// Margin returns the sum of the three edge lengths (the R* split margin
// metric, up to a constant factor).
func (b Box3) Margin() float64 {
	if b.IsEmpty() {
		return 0
	}
	m := 0.0
	for d := 0; d < 3; d++ {
		m += b.Max[d] - b.Min[d]
	}
	return m
}

// Center returns the box center.
func (b Box3) Center() [3]float64 {
	return [3]float64{
		(b.Min[0] + b.Max[0]) / 2,
		(b.Min[1] + b.Max[1]) / 2,
		(b.Min[2] + b.Max[2]) / 2,
	}
}

// Bounds returns b's lower and upper bound on axis.
func (b Box3) Bounds(axis int) (lo, hi float64) { return b.Min[axis], b.Max[axis] }

// Union returns the smallest box covering both operands.
func (b Box3) Union(o Box3) Box3 {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	out := b
	for d := 0; d < 3; d++ {
		out.Min[d] = min(out.Min[d], o.Min[d])
		out.Max[d] = max(out.Max[d], o.Max[d])
	}
	return out
}

// Intersects reports whether the boxes share a point (closed semantics).
// The comparisons are phrased positively so NaN coordinates fail closed
// (match nothing), the same convention as Rect.Intersects — a query box
// carrying NaN must not degenerate into a match-everything wildcard.
func (b Box3) Intersects(o Box3) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	for d := 0; d < 3; d++ {
		if !(b.Min[d] <= o.Max[d] && o.Min[d] <= b.Max[d]) {
			return false
		}
	}
	return true
}

// Ordered reports whether Min <= Max on every axis. It is false for an
// inverted box and for one with a NaN coordinate: what a node decoder
// refuses in an entry (ErrInvertedBox).
func (b *Box3) Ordered() bool {
	return b.Min[0] <= b.Max[0] && b.Min[1] <= b.Max[1] && b.Min[2] <= b.Max[2]
}

// AsQuery returns the box a search hands to Hits: b itself, or, when b is
// empty, a box of NaNs, on which every comparison of Hits fails. A search
// calls it once, so its per-entry test never asks whether the query is
// empty, and an empty query still reads its root and matches nothing.
func (b Box3) AsQuery() Box3 {
	if b.IsEmpty() {
		nan := math.NaN()
		return Box3{Min: [3]float64{nan, nan, nan}, Max: [3]float64{nan, nan, nan}}
	}
	return b
}

// Hits is the search kernel: it reports whether the entry box e shares a
// point with the query q, in six comparisons and no call. q must come from
// AsQuery and e must be Ordered, which every decoded node guarantees; over
// those it answers exactly as q.Intersects(*e). The comparisons are
// positive, so a NaN in q fails closed as it does in Intersects. The time
// axis goes first: every R*-tree query here is a time slab, a snapshot or
// a short interval, which rules out most entries on that axis alone. The
// result is a conjunction, so the order cannot change an answer.
func (q *Box3) Hits(e *Box3) bool {
	return q.Min[2] <= e.Max[2] && e.Min[2] <= q.Max[2] &&
		q.Min[0] <= e.Max[0] && e.Min[0] <= q.Max[0] &&
		q.Min[1] <= e.Max[1] && e.Min[1] <= q.Max[1]
}

// Contains reports whether o lies entirely inside b.
func (b Box3) Contains(o Box3) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	for d := 0; d < 3; d++ {
		if o.Min[d] < b.Min[d] || o.Max[d] > b.Max[d] {
			return false
		}
	}
	return true
}

// Overlap returns the volume of the intersection.
func (b Box3) Overlap(o Box3) float64 {
	v := 1.0
	for d := 0; d < 3; d++ {
		lo := max(b.Min[d], o.Min[d])
		hi := min(b.Max[d], o.Max[d])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// MinDistXY2 returns the squared Euclidean distance from point (x, y) to
// the nearest point of the box's spatial (XY) projection, ignoring the
// time axis. The operation order matches Rect.MinDist2 exactly, so a box
// built from a rectangle yields bit-identical distances.
func (b Box3) MinDistXY2(x, y float64) float64 {
	dx := 0.0
	if x < b.Min[0] {
		dx = b.Min[0] - x
	} else if x > b.Max[0] {
		dx = x - b.Max[0]
	}
	dy := 0.0
	if y < b.Min[1] {
		dy = b.Min[1] - y
	} else if y > b.Max[1] {
		dy = y - b.Max[1]
	}
	return dx*dx + dy*dy
}

// CenterDistance2 returns the squared distance between the box centers.
func (b Box3) CenterDistance2(o Box3) float64 {
	cb, co := b.Center(), o.Center()
	s := 0.0
	for d := 0; d < 3; d++ {
		dd := cb[d] - co[d]
		s += dd * dd
	}
	return s
}

func (b Box3) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]x[%g,%g]",
		b.Min[0], b.Max[0], b.Min[1], b.Max[1], b.Min[2], b.Max[2])
}
