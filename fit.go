package stindex

import (
	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

// FitOptions controls FitObject, the §II-A approximation machinery for
// raw tracks: piecewise polynomials of bounded degree, fitted by least
// squares, segmented greedily so every instant's fitted rectangle stays
// within Tolerance of the raw one.
type FitOptions struct {
	// MaxDegree bounds the per-segment polynomial degree (default 2,
	// maximum 6).
	MaxDegree int
	// Tolerance is the maximum per-side deviation allowed between raw and
	// fitted rectangles (default 0.005 of the unit space).
	Tolerance float64
	// MaxSegmentLength optionally caps segment duration.
	MaxSegmentLength int
}

// FitObject approximates a raw per-instant track (rects[i] is the
// object's rectangle at time start+i) by a piecewise-polynomial object.
// It returns the fitted object and the worst per-side deviation actually
// achieved (always within Tolerance). The fitted object records its
// segment boundaries, so PiecewiseRecords and the splitting pipeline
// treat it like any generated motion.
func FitObject(id, start int64, rects []Rect, opts FitOptions) (*Object, float64, error) {
	raw := make([]geom.Rect, len(rects))
	for i, r := range rects {
		raw[i] = r.internal()
	}
	o, worst, err := trajectory.FitObject(id, start, raw, trajectory.FitConfig{
		MaxDegree:        opts.MaxDegree,
		Tolerance:        opts.Tolerance,
		MaxSegmentLength: opts.MaxSegmentLength,
	})
	if err != nil {
		return nil, 0, err
	}
	return &Object{inner: o}, worst, nil
}

// Refined wraps an index with an exact-geometry verification step: query
// results are candidates from the index's MBR records, filtered against
// the original objects' per-instant rectangles. This removes the false
// positives inherent to MBR approximation at the cost of keeping the
// objects in memory — the classic filter-and-refine pattern.
func Refined(idx Index, objs []*Object) *RefinedIndex {
	byID := make(map[int64]*Object, len(objs))
	for _, o := range objs {
		byID[o.ID()] = o
	}
	return &RefinedIndex{inner: idx, objs: byID}
}

// RefinedIndex answers queries with exact object geometry. It implements
// Index; the statistics are the wrapped index's own — IOStats reflect
// only its disk accesses (the refinement step is a CPU-side post-filter)
// — and so is Nearest: the answer ranks MBR min-distances (the notion
// Neighbor.Dist2 documents), which refinement against exact per-instant
// geometry would redefine rather than filter.
type RefinedIndex struct {
	inner // the wrapped index; embedded unexported
	objs  map[int64]*Object
}

type inner = Index

// Snapshot implements Index: candidates whose actual rectangle at t
// intersects r.
func (x *RefinedIndex) Snapshot(r Rect, t int64) ([]int64, error) {
	return x.refine(r, Interval{Start: t, End: t + 1}, func() ([]int64, error) {
		return x.inner.Snapshot(r, t)
	})
}

// Range implements Index: candidates whose actual rectangle intersects r
// at some instant of iv.
func (x *RefinedIndex) Range(r Rect, iv Interval) ([]int64, error) {
	return x.refine(r, iv, func() ([]int64, error) {
		return x.inner.Range(r, iv)
	})
}

func (x *RefinedIndex) refine(r Rect, iv Interval, candidates func() ([]int64, error)) ([]int64, error) {
	ids, err := candidates()
	if err != nil {
		return nil, err
	}
	out := ids[:0]
	for _, id := range ids {
		if x.crosses(id, r, iv) {
			out = append(out, id)
		}
	}
	return out, nil
}

// crosses reports whether the object's exact rectangle intersects r at
// some instant of iv. An unknown object does not: it is dropped rather
// than over-reported.
func (x *RefinedIndex) crosses(id int64, r Rect, iv Interval) bool {
	o, ok := x.objs[id]
	if !ok {
		return false
	}
	lt := o.Lifetime()
	for t := max(iv.Start, lt.Start); t < min(iv.End, lt.End); t++ {
		if g, ok := o.At(t); ok && g.Intersects(r) {
			return true
		}
	}
	return false
}

// Trajectory implements Index: candidate hits from the underlying index,
// dropped when the object's exact geometry never intersects r during iv.
// Pieces counts stay at the MBR level (they describe index records, not
// exact geometry).
func (x *RefinedIndex) Trajectory(r Rect, iv Interval) ([]TrajectoryHit, error) {
	hits, err := x.inner.Trajectory(r, iv)
	if err != nil {
		return nil, err
	}
	out := hits[:0]
	for _, h := range hits {
		if x.crosses(h.ObjectID, r, iv) {
			out = append(out, h)
		}
	}
	return out, nil
}

// Kind implements Index.
func (x *RefinedIndex) Kind() string { return x.inner.Kind() + "+refine" }

var _ Index = (*RefinedIndex)(nil)
