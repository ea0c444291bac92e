package trajectory

import (
	"fmt"
	"math"

	"stindex/internal/geom"
)

// FitConfig controls FitSegments, the §II-A approximation machinery: "by
// restricting the degree of the polynomials up to a maximal value, most
// common movements can be approximated or even represented exactly by
// using only a few tuples".
type FitConfig struct {
	// MaxDegree bounds the polynomial degree per segment. Default 2 (the
	// degrees the paper's experiments generate). Supported up to 6.
	MaxDegree int
	// Tolerance is the maximum allowed deviation, per time instant,
	// between the raw rectangle and the fitted one (measured on each
	// rectangle side). Default 0.005 (half a percent of the unit space).
	Tolerance float64
}

func (c FitConfig) withDefaults() (FitConfig, error) {
	if c.MaxDegree == 0 {
		c.MaxDegree = 2
	}
	if c.Tolerance == 0 {
		c.Tolerance = 0.005
	}
	if c.MaxDegree < 0 || c.MaxDegree > 6 {
		return c, fmt.Errorf("trajectory: MaxDegree %d outside [0,6]", c.MaxDegree)
	}
	if c.Tolerance < 0 {
		return c, fmt.Errorf("trajectory: negative tolerance %g", c.Tolerance)
	}
	return c, nil
}

// FitSegments approximates a raw per-instant track (rects[i] is the
// object's rectangle at time start+i) by piecewise polynomial segments:
// per segment, least-squares polynomials for the center and half-extent
// of each axis, greedily extended as long as every instant's fitted
// rectangle stays within the tolerance of the raw one. The result feeds
// FromSegments / the splitting pipeline like any other motion.
func FitSegments(start int64, rects []geom.Rect, cfg FitConfig) ([]Segment, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(rects) == 0 {
		return nil, ErrNoSegments
	}
	// Decompose the track into four scalar series.
	n := len(rects)
	cx := make([]float64, n)
	cy := make([]float64, n)
	hw := make([]float64, n)
	hh := make([]float64, n)
	for i, r := range rects {
		if !r.Valid() {
			return nil, fmt.Errorf("trajectory: instant %d has invalid rect %v", i, r)
		}
		cx[i] = (r.MinX + r.MaxX) / 2
		cy[i] = (r.MinY + r.MaxY) / 2
		hw[i] = (r.MaxX - r.MinX) / 2
		hh[i] = (r.MaxY - r.MinY) / 2
	}

	var segs []Segment
	for lo := 0; lo < n; {
		hi := ixFitLongest(cx, cy, hw, hh, lo, n, cfg)
		segs = append(segs, Segment{
			Start: start + int64(lo), End: start + int64(hi),
			X:     fitPoly(cx[lo:hi], cfg.MaxDegree),
			Y:     fitPoly(cy[lo:hi], cfg.MaxDegree),
			HalfW: fitPoly(hw[lo:hi], cfg.MaxDegree),
			HalfH: fitPoly(hh[lo:hi], cfg.MaxDegree),
		})
		lo = hi
	}
	return segs, nil
}

// FitObject fits the raw track and rasterises the approximation back into
// an object, returning it together with the maximum per-side deviation
// actually achieved.
func FitObject(id, start int64, rects []geom.Rect, cfg FitConfig) (*Object, float64, error) {
	segs, err := FitSegments(start, rects, cfg)
	if err != nil {
		return nil, 0, err
	}
	o, err := FromSegments(id, segs)
	if err != nil {
		return nil, 0, err
	}
	worst := 0.0
	for i, r := range rects {
		f := o.InstantRect(i)
		for _, d := range [...]float64{
			math.Abs(f.MinX - r.MinX), math.Abs(f.MaxX - r.MaxX),
			math.Abs(f.MinY - r.MinY), math.Abs(f.MaxY - r.MaxY),
		} {
			if d > worst {
				worst = d
			}
		}
	}
	return o, worst, nil
}

// ixFitLongest returns the largest hi such that [lo, hi) fits within the
// tolerance, using exponential growth plus binary search.
func ixFitLongest(cx, cy, hw, hh []float64, lo, n int, cfg FitConfig) int {
	feasible := func(hi int) bool {
		return segmentFits(cx[lo:hi], cfg) && segmentFits(cy[lo:hi], cfg) &&
			segmentFits(hw[lo:hi], cfg) && segmentFits(hh[lo:hi], cfg)
	}
	// A single instant always fits (degree-0 through one point).
	best := lo + 1
	step := 1
	for best < n {
		next := best + step
		if next > n {
			next = n
		}
		if !feasible(next) {
			break
		}
		best = next
		step *= 2
	}
	// Binary search between best (feasible) and best+step (infeasible).
	loB, hiB := best, best+step
	if hiB > n {
		hiB = n
	}
	for loB < hiB {
		mid := (loB + hiB + 1) / 2
		if feasible(mid) {
			loB = mid
		} else {
			hiB = mid - 1
		}
	}
	return loB
}

// segmentFits fits one scalar series and checks the max deviation.
func segmentFits(series []float64, cfg FitConfig) bool {
	p := fitPoly(series, cfg.MaxDegree)
	for i, v := range series {
		if math.Abs(p.Eval(float64(i))-v) > cfg.Tolerance {
			return false
		}
	}
	return true
}

// fitPoly least-squares fits a polynomial of at most the given degree to
// series[i] at abscissa i, via the normal equations. Degree is clamped to
// len(series)-1 (an interpolating fit for short series).
func fitPoly(series []float64, degree int) Polynomial {
	n := len(series)
	if degree > n-1 {
		degree = n - 1
	}
	if degree < 0 {
		degree = 0
	}
	m := degree + 1
	// Normal equations: A[j][k] = Σ_i i^(j+k), b[j] = Σ_i y_i · i^j.
	a := make([][]float64, m)
	b := make([]float64, m)
	for j := range a {
		a[j] = make([]float64, m)
	}
	powers := make([]float64, 2*m-1)
	for i := 0; i < n; i++ {
		x := float64(i)
		p := 1.0
		for e := 0; e < 2*m-1; e++ {
			powers[e] = p
			p *= x
		}
		for j := 0; j < m; j++ {
			b[j] += series[i] * powers[j]
			for k := 0; k < m; k++ {
				a[j][k] += powers[j+k]
			}
		}
	}
	coeffs := solveLinear(a, b)
	if coeffs == nil {
		// Singular system (cannot happen for distinct abscissae, but be
		// safe): fall back to the series mean.
		mean := 0.0
		for _, v := range series {
			mean += v
		}
		return NewPolynomial(mean / float64(n))
	}
	return NewPolynomial(coeffs...)
}

// solveLinear solves a (small, dense) linear system with Gaussian
// elimination and partial pivoting; returns nil for singular systems.
func solveLinear(a [][]float64, b []float64) []float64 {
	m := len(a)
	for col := 0; col < m; col++ {
		pivot := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < m; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < m; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, m)
	for r := m - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < m; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x
}
