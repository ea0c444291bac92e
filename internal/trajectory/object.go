package trajectory

import (
	"fmt"
	"slices"

	"stindex/internal/geom"
)

// Object is a spatiotemporal object: an identifier plus the sequence of
// spatial rectangles it occupied at each discrete time instant of its
// lifetime [Start(), End()). Instants[i] is the MBR of the object at time
// Start()+i. Objects are immutable once built.
type Object struct {
	ID       int64
	start    int64
	instants []geom.Rect
	// breaks holds the local indices (excluding 0) where the motion changed
	// characteristics — the starts of the second and later polynomial
	// segments. The piecewise splitting baseline splits exactly there.
	breaks []int
}

// NewObject builds an object directly from its per-instant rectangles.
// The rectangles are copied. All rectangles must be valid.
func NewObject(id, start int64, instants []geom.Rect) (*Object, error) {
	return newObject(id, start, slices.Clone(instants))
}

// FromCorners builds an object from its per-instant rectangles given as
// [minX, minY, maxX, maxY] quadruples, the wire form of a dataset file.
// All rectangles must be valid.
func FromCorners(id, start int64, corners [][4]float64) (*Object, error) {
	instants := make([]geom.Rect, len(corners))
	for i, q := range corners {
		instants[i] = geom.Rect{MinX: q[0], MinY: q[1], MaxX: q[2], MaxY: q[3]}
	}
	return newObject(id, start, instants)
}

// newObject is NewObject over a slice of rectangles the object keeps:
// the caller must hold no other reference to it.
func newObject(id, start int64, instants []geom.Rect) (*Object, error) {
	if len(instants) == 0 {
		return nil, ErrNoSegments
	}
	for i, r := range instants {
		if !r.Valid() {
			return nil, fmt.Errorf("trajectory: object %d instant %d: invalid rect %v", id, i, r)
		}
	}
	return &Object{ID: id, start: start, instants: instants}, nil
}

// FromSegments rasterises a piecewise-polynomial motion (§II-A) into an
// Object. Segments must be sorted and contiguous: each segment's Start must
// equal the previous segment's End. Polynomials are evaluated at local time
// t - segment.Start. Degenerate extents (negative half-widths) are clamped
// to zero, turning the object into a point at those instants.
func FromSegments(id int64, segs []Segment) (*Object, error) {
	if len(segs) == 0 {
		return nil, ErrNoSegments
	}
	for i, s := range segs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if i > 0 && s.Start != segs[i-1].End {
			return nil, fmt.Errorf("%w: segment %d starts at %d, previous ends at %d",
				ErrGap, i, s.Start, segs[i-1].End)
		}
	}
	start := segs[0].Start
	end := segs[len(segs)-1].End
	instants := make([]geom.Rect, 0, end-start)
	var breaks []int
	for si, s := range segs {
		if si > 0 {
			breaks = append(breaks, int(s.Start-start))
		}
		for t := s.Start; t < s.End; t++ {
			lt := float64(t - s.Start)
			cx, cy := s.X.Eval(lt), s.Y.Eval(lt)
			hw, hh := s.HalfW.Eval(lt), s.HalfH.Eval(lt)
			if hw < 0 {
				hw = 0
			}
			if hh < 0 {
				hh = 0
			}
			instants = append(instants, geom.Rect{
				MinX: cx - hw, MinY: cy - hh,
				MaxX: cx + hw, MaxY: cy + hh,
			})
		}
	}
	o, err := newObject(id, start, instants)
	if err != nil {
		return nil, err
	}
	o.breaks = breaks
	return o, nil
}

// Breakpoints returns the local instant indices at which the motion changed
// characteristics (the starts of the second and later segments). Objects
// built directly from instant sequences have none.
func (o *Object) Breakpoints() []int { return o.breaks }

// SetBreakpoints records motion-change indices on an object built from raw
// instants (e.g. deserialised from disk). Indices must be strictly
// increasing inside (0, Len()); offending values are dropped.
func (o *Object) SetBreakpoints(breaks []int) {
	cleaned := make([]int, 0, len(breaks))
	prev := 0
	for _, b := range breaks {
		if b > prev && b < len(o.instants) {
			cleaned = append(cleaned, b)
			prev = b
		}
	}
	o.breaks = cleaned
}

// Start returns the first instant of the object's lifetime.
func (o *Object) Start() int64 { return o.start }

// End returns the instant one past the object's lifetime: the object is
// alive at every t with Start() <= t < End().
func (o *Object) End() int64 { return o.start + int64(len(o.instants)) }

// Lifetime returns the object's lifetime interval [Start, End).
func (o *Object) Lifetime() geom.Interval {
	return geom.Interval{Start: o.Start(), End: o.End()}
}

// Len returns the number of time instants the object is alive.
func (o *Object) Len() int { return len(o.instants) }

// At returns the object's MBR at absolute time t. It panics when t is
// outside the lifetime; use Lifetime().ContainsInstant to guard.
func (o *Object) At(t int64) geom.Rect {
	i := t - o.start
	if i < 0 || i >= int64(len(o.instants)) {
		panic(fmt.Sprintf("trajectory: time %d outside lifetime %v of object %d", t, o.Lifetime(), o.ID))
	}
	return o.instants[i]
}

// InstantRect returns the MBR at local index i (the rectangle at time
// Start()+i).
func (o *Object) InstantRect(i int) geom.Rect { return o.instants[i] }

// MBR returns the single minimum bounding box of the whole object — the
// "no splits" representation.
func (o *Object) MBR() geom.Box {
	r := geom.EmptyRect()
	for _, ir := range o.instants {
		r = r.Union(ir)
	}
	return geom.NewBox(r, o.Lifetime())
}

// BoxOf returns the bounding box of the consecutive instant range
// [i, j) in local indices, i.e. the MBR of the object between times
// Start()+i and Start()+j. It panics on an empty or out-of-range span.
func (o *Object) BoxOf(i, j int) geom.Box {
	if i < 0 || j > len(o.instants) || i >= j {
		panic(fmt.Sprintf("trajectory: bad instant span [%d,%d) for object of length %d", i, j, len(o.instants)))
	}
	r := geom.EmptyRect()
	for k := i; k < j; k++ {
		r = r.Union(o.instants[k])
	}
	return geom.NewBox(r, geom.Interval{Start: o.start + int64(i), End: o.start + int64(j)})
}
