package stindex

import (
	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

// FitOptions controls FitObject, the §II-A approximation machinery for
// raw tracks: piecewise polynomials of degree at most 2, fitted by least
// squares, segmented greedily so every instant's fitted rectangle stays
// within Tolerance of the raw one.
type FitOptions struct {
	// Tolerance is the maximum per-side deviation allowed between raw and
	// fitted rectangles (default 0.005 of the unit space).
	Tolerance float64
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
	o, worst, err := trajectory.FitObject(id, start, raw, trajectory.FitConfig{Tolerance: opts.Tolerance})
	if err != nil {
		return nil, 0, err
	}
	return &Object{inner: o}, worst, nil
}
