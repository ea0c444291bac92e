// Package datagen generates the paper's experimental workloads: the
// "random" datasets of moving rectangles driven by piecewise polynomial
// motion, the skewed "railway" datasets of trains on a 22-city / 51-track
// map approximating California and New York, and the snapshot and range
// query sets of Table II.
package datagen

import (
	"fmt"
	"math/rand"

	"stindex/internal/trajectory"
)

// The paper's random datasets (§V): lifetimes uniform in
// [minLifetime, RandomConfig.MaxLifetime], movement approximated by a
// uniform number of polynomial segments of degree one or two in
// [minSegments, maxSegments], everything normalised to the unit square,
// rectangle side extents uniform in [minExtent, maxExtent] of the space,
// and a changingExtentFraction of the objects whose extent also grows or
// shrinks linearly over each segment (figure 6 motion).
const (
	minLifetime            = 1
	minSegments            = 1
	maxSegments            = 10
	minExtent              = 0.001
	maxExtent              = 0.01
	changingExtentFraction = 0.25
)

// RandomConfig parameterises the uniform moving-rectangles datasets.
type RandomConfig struct {
	N       int   // number of objects
	Horizon int64 // evolution covers time [0, Horizon)
	Seed    int64
	// FirstID offsets the generated object ids (ids are FirstID..
	// FirstID+N-1): chunked generation of one large dataset picks a
	// distinct Seed and FirstID per chunk so ids never collide and the
	// whole dataset streams through bounded memory.
	FirstID int64

	MaxLifetime int64 // default 100
}

func (c RandomConfig) withDefaults() (RandomConfig, error) {
	if c.Horizon == 0 {
		c.Horizon = 1000
	}
	if c.MaxLifetime == 0 {
		c.MaxLifetime = 100
	}
	if c.N <= 0 {
		return c, fmt.Errorf("datagen: N must be positive, got %d", c.N)
	}
	if c.MaxLifetime < minLifetime || c.MaxLifetime > c.Horizon {
		return c, fmt.Errorf("datagen: bad lifetime range [%d,%d] for horizon %d",
			minLifetime, c.MaxLifetime, c.Horizon)
	}
	return c, nil
}

// Random generates a uniform moving-rectangles dataset. Each object's
// center follows, per segment, a linear or quadratic Bézier curve whose
// control points are sampled inside the unit square shrunk by the extent,
// so the rectangle never leaves [0,1]². Bézier curves are re-expressed as
// the polynomials of §II-A evaluated at segment-local time.
func Random(cfg RandomConfig) ([]*trajectory.Object, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	objs := make([]*trajectory.Object, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		o, err := randomObject(rng, cfg.FirstID+int64(i), cfg)
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
	return objs, nil
}

func randomObject(rng *rand.Rand, id int64, cfg RandomConfig) (*trajectory.Object, error) {
	lifetime := minLifetime + rng.Int63n(cfg.MaxLifetime-minLifetime+1)
	start := rng.Int63n(cfg.Horizon - lifetime + 1)

	exW := uniform(rng, minExtent, maxExtent)
	exH := uniform(rng, minExtent, maxExtent)
	changing := rng.Float64() < changingExtentFraction

	nSegs := minSegments + rng.Intn(maxSegments-minSegments+1)
	if int64(nSegs) > lifetime {
		nSegs = int(lifetime)
	}
	bounds := splitLifetime(rng, lifetime, nSegs)

	// Sample way-points with enough margin that the largest extent the
	// object can reach stays inside the unit square.
	maxEx := exW
	if exH > maxEx {
		maxEx = exH
	}
	if changing {
		maxEx = maxExtent
	}
	margin := maxEx/2 + 1e-9

	cur := [2]float64{uniform(rng, margin, 1-margin), uniform(rng, margin, 1-margin)}
	segs := make([]trajectory.Segment, 0, nSegs)
	t := start
	for s := 0; s < nSegs; s++ {
		d := bounds[s]
		next := [2]float64{uniform(rng, margin, 1-margin), uniform(rng, margin, 1-margin)}
		seg := trajectory.Segment{Start: t, End: t + d}
		quadratic := rng.Intn(2) == 1
		for axis := 0; axis < 2; axis++ {
			a, b := cur[axis], next[axis]
			var p trajectory.Polynomial
			if quadratic {
				c := uniform(rng, margin, 1-margin) // Bézier control point
				p = bezier2Poly(a, c, b, float64(d))
			} else {
				p = bezier1Poly(a, b, float64(d))
			}
			if axis == 0 {
				seg.X = p
			} else {
				seg.Y = p
			}
		}
		hw0, hh0 := exW/2, exH/2
		if changing {
			hw1 := uniform(rng, minExtent, maxExtent) / 2
			hh1 := uniform(rng, minExtent, maxExtent) / 2
			seg.HalfW = bezier1Poly(hw0, hw1, float64(d))
			seg.HalfH = bezier1Poly(hh0, hh1, float64(d))
			exW, exH = hw1*2, hh1*2
		} else {
			seg.HalfW = trajectory.NewPolynomial(hw0)
			seg.HalfH = trajectory.NewPolynomial(hh0)
		}
		segs = append(segs, seg)
		cur = next
		t += d
	}
	return trajectory.FromSegments(id, segs)
}

// splitLifetime partitions a lifetime of `total` instants into n positive
// spans.
func splitLifetime(rng *rand.Rand, total int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = 1
	}
	for rest := total - int64(n); rest > 0; rest-- {
		out[rng.Intn(n)]++
	}
	return out
}

// bezier1Poly returns the degree-1 polynomial tracing the segment from a
// to b over duration d in local time.
func bezier1Poly(a, b, d float64) trajectory.Polynomial {
	if d <= 1 {
		return trajectory.NewPolynomial(a)
	}
	return trajectory.NewPolynomial(a, (b-a)/d)
}

// bezier2Poly returns the degree-2 polynomial of the quadratic Bézier
// curve through a (start), control c and b (end) over duration d in local
// time: x(τ) = a(1-τ)² + 2cτ(1-τ) + bτ², τ = t/d.
func bezier2Poly(a, c, b, d float64) trajectory.Polynomial {
	if d <= 1 {
		return trajectory.NewPolynomial(a)
	}
	return trajectory.NewPolynomial(a, 2*(c-a)/d, (a-2*c+b)/(d*d))
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}
