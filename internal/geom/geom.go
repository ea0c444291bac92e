// Package geom provides the spatial and spatiotemporal geometry primitives
// used throughout the index: 2-dimensional points and rectangles, discrete
// time intervals, and 3-dimensional boxes (a rectangle extruded over an
// interval). All coordinates are float64 and live, by convention of the
// paper, in the unit square [0,1]².
//
// Time is discrete (a succession of increasing integers). A record's
// lifetime [start, end) is half-open: the record is alive at every instant
// t with start <= t < end. The paper's "Now" (still alive) is represented
// by the sentinel geom.Now.
package geom

import (
	"errors"
	"fmt"
	"math"
)

// Now is the deletion-time sentinel for records that are still alive.
const Now = math.MaxInt64

// Rect is a 2-dimensional, axis-parallel rectangle (an MBR). A Rect is
// valid when MinX <= MaxX and MinY <= MaxY; a degenerate rectangle with
// zero extent represents a point.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns the identity element for Union: any rectangle unioned
// with it is unchanged, and it intersects nothing.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether r is the empty rectangle (or otherwise inverted).
func (r Rect) IsEmpty() bool {
	return r.MinX > r.MaxX || r.MinY > r.MaxY
}

// Valid reports whether r is a well-formed (possibly degenerate) rectangle
// with finite coordinates.
func (r Rect) Valid() bool {
	if r.IsEmpty() {
		return false
	}
	for _, v := range [...]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Area returns the area of r, 0 for empty rectangles.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) * (r.MaxY - r.MinY)
}

// Measure returns the area, as Box3.Measure returns the volume.
func (r Rect) Measure() float64 { return r.Area() }

// Margin returns half the perimeter (the R*-tree "margin") of r.
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) + (r.MaxY - r.MinY)
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: min(r.MinX, s.MinX),
		MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX),
		MaxY: max(r.MaxY, s.MaxY),
	}
}

// Intersect returns the intersection of r and s, which is empty when they
// do not overlap.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		MinX: max(r.MinX, s.MinX),
		MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX),
		MaxY: min(r.MaxY, s.MaxY),
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Intersects reports whether r and s share at least one point (touching
// boundaries count as intersecting, matching R-tree search semantics).
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Ordered reports whether MinX <= MaxX and MinY <= MaxY. It is false for
// an inverted rectangle and for one with a NaN coordinate: what a node
// decoder refuses in an entry (ErrInvertedBox).
func (r *Rect) Ordered() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY
}

// AsQuery returns the rectangle a search hands to Hits: r itself, or, when
// r is empty, a rectangle of NaNs, on which every comparison of Hits
// fails. A search calls it once, so its per-entry test never asks whether
// the query is empty, and an empty query still reads its roots and
// matches nothing.
func (r Rect) AsQuery() Rect {
	if r.IsEmpty() {
		nan := math.NaN()
		return Rect{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan}
	}
	return r
}

// Hits is the search kernel: it reports whether the entry rectangle e
// shares a point with the query q, in four comparisons and no call. q must
// come from AsQuery and e must be Ordered, which every decoded node
// guarantees; over those it answers exactly as q.Intersects(*e), a NaN in
// q failing closed.
func (q *Rect) Hits(e *Rect) bool {
	return q.MinX <= e.MaxX && e.MinX <= q.MaxX &&
		q.MinY <= e.MaxY && e.MinY <= q.MaxY
}

// ErrInvertedBox is the error of a node decoder that meets an entry box
// or rectangle that is not Ordered. No writer produces one: every tree
// refuses an empty rectangle at insert and bulk load, and a directory
// entry is the union of non-empty entries. Such a box is corruption, and
// refusing it where bytes become a node is what lets Hits skip the test.
var ErrInvertedBox = errors.New("geom: entry box is inverted or NaN")

// Contains reports whether s lies entirely inside r.
func (r Rect) Contains(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX &&
		r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// Enlargement returns the area increase needed for r to also cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// MinDist2 returns the squared Euclidean distance from point (x, y) to
// the nearest point of r (0 when the point lies inside or on the
// boundary). This is the MINDIST bound of branch-and-bound nearest
// neighbour search: an MBR's MinDist2 never exceeds any contained
// rectangle's, so it is an admissible priority for best-first traversal.
// Box3.MinDistXY2 must keep the exact same operation order — the
// differential oracle compares the resulting floats bit for bit.
func (r Rect) MinDist2(x, y float64) float64 {
	dx := 0.0
	if x < r.MinX {
		dx = r.MinX - x
	} else if x > r.MaxX {
		dx = x - r.MaxX
	}
	dy := 0.0
	if y < r.MinY {
		dy = r.MinY - y
	} else if y > r.MaxY {
		dy = y - r.MaxY
	}
	return dx*dx + dy*dy
}

// Bounds returns r's lower and upper bound on axis 0 (x) or 1 (y).
func (r Rect) Bounds(axis int) (lo, hi float64) {
	if axis == 0 {
		return r.MinX, r.MaxX
	}
	return r.MinY, r.MaxY
}

// Overlap returns the area of the intersection of r and s.
func (r Rect) Overlap(s Rect) float64 {
	return r.Intersect(s).Area()
}

func (r Rect) String() string {
	return fmt.Sprintf("[%.4f,%.4f]x[%.4f,%.4f]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Interval is a half-open discrete time interval [Start, End). End == Now
// means the interval is still open (the record is alive).
type Interval struct {
	Start, End int64
}

// ValidInterval reports whether iv is non-empty and well ordered.
func (iv Interval) ValidInterval() bool {
	return iv.Start < iv.End
}

// Length returns the number of time instants covered by iv. Open intervals
// have undefined length; callers must close them first.
func (iv Interval) Length() int64 {
	if iv.End == Now {
		return Now
	}
	return iv.End - iv.Start
}

// ContainsInstant reports whether time t falls inside [Start, End).
func (iv Interval) ContainsInstant(t int64) bool {
	return iv.Start <= t && t < iv.End
}

// Overlaps reports whether the two half-open intervals share an instant.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Start < o.End && o.Start < iv.End
}

func (iv Interval) String() string {
	if iv.End == Now {
		return fmt.Sprintf("[%d,now)", iv.Start)
	}
	return fmt.Sprintf("[%d,%d)", iv.Start, iv.End)
}
