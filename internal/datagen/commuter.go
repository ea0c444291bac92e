package datagen

import (
	"fmt"
	"math/rand"

	"stindex/internal/trajectory"
)

// The commuter dataset's mix: a commuterFraction of the objects are
// commuters, parked for at most parkSpan instants per stay and travelling
// at most transitSpan instants per leg over about commuteDistance; every
// object is a square of side extent (thin commuters make the tent's dead
// space dominate).
const (
	commuterFraction = 0.4
	parkSpan         = 30
	transitSpan      = 6
	commuteDistance  = 0.5
	extent           = 0.004
)

// CommuterConfig parameterises the commuter dataset: a mix of "commuters"
// — objects that park, travel quickly to a second location and return
// (tent-shaped trajectories, the figure-4 pathology where one split gains
// little but two gain a lot) — and "wanderers" with ordinary drifting
// motion. Plain Greedy split distribution starves the commuters; LAGreedy
// rescues them (paper §III-B.3).
type CommuterConfig struct {
	N       int
	Horizon int64 // default 1000
	Seed    int64
}

func (c CommuterConfig) withDefaults() (CommuterConfig, error) {
	if c.Horizon == 0 {
		c.Horizon = 1000
	}
	if c.N <= 0 {
		return c, fmt.Errorf("datagen: N must be positive, got %d", c.N)
	}
	return c, nil
}

// Commuter generates the mixed commuter/wanderer dataset.
func Commuter(cfg CommuterConfig) ([]*trajectory.Object, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	objs := make([]*trajectory.Object, 0, cfg.N)
	for id := 0; id < cfg.N; id++ {
		var o *trajectory.Object
		var err error
		if rng.Float64() < commuterFraction {
			o, err = commuterObject(rng, int64(id), cfg)
		} else {
			o, err = wandererObject(rng, int64(id), cfg)
		}
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
	return objs, nil
}

// commuterObject parks at home, transits to work, parks, and returns:
// park/transit/park/transit/park.
func commuterObject(rng *rand.Rand, id int64, cfg CommuterConfig) (*trajectory.Object, error) {
	half := extent / 2
	hx := uniform(rng, half+0.01, 1-half-0.01-commuteDistance)
	hy := uniform(rng, half+0.01, 1-half-0.01-commuteDistance)
	wx := hx + commuteDistance*uniform(rng, 0.7, 1.0)
	wy := hy + commuteDistance*uniform(rng, 0.7, 1.0)

	park := func(t, d int64, x, y float64) trajectory.Segment {
		return trajectory.Segment{
			Start: t, End: t + d,
			X:     trajectory.NewPolynomial(x),
			Y:     trajectory.NewPolynomial(y),
			HalfW: trajectory.NewPolynomial(half),
			HalfH: trajectory.NewPolynomial(half),
		}
	}
	transit := func(t, d int64, x0, y0, x1, y1 float64) trajectory.Segment {
		return trajectory.Segment{
			Start: t, End: t + d,
			X:     bezier1Poly(x0, x1, float64(d)),
			Y:     bezier1Poly(y0, y1, float64(d)),
			HalfW: trajectory.NewPolynomial(half),
			HalfH: trajectory.NewPolynomial(half),
		}
	}

	p1 := 1 + rng.Int63n(parkSpan)
	tr1 := 1 + rng.Int63n(transitSpan)
	p2 := 1 + rng.Int63n(parkSpan)
	tr2 := 1 + rng.Int63n(transitSpan)
	p3 := 1 + rng.Int63n(parkSpan)
	lifetime := p1 + tr1 + p2 + tr2 + p3
	if lifetime >= cfg.Horizon {
		lifetime = cfg.Horizon - 1
	}
	start := rng.Int63n(cfg.Horizon - lifetime)

	t := start
	segs := []trajectory.Segment{park(t, p1, hx, hy)}
	t += p1
	segs = append(segs, transit(t, tr1, hx, hy, wx, wy))
	t += tr1
	segs = append(segs, park(t, p2, wx, wy))
	t += p2
	segs = append(segs, transit(t, tr2, wx, wy, hx, hy))
	t += tr2
	segs = append(segs, park(t, p3, hx, hy))
	return trajectory.FromSegments(id, segs)
}

// wandererObject drifts steadily in one direction — a monotone-gain
// object whose every split helps a little.
func wandererObject(rng *rand.Rand, id int64, cfg CommuterConfig) (*trajectory.Object, error) {
	half := extent / 2
	span := uniform(rng, 0.05, 0.15) // modest drift distance
	d := parkSpan*2 + rng.Int63n(parkSpan)
	x0 := uniform(rng, half+0.01, 1-half-0.01-span)
	y0 := uniform(rng, half+0.01, 1-half-0.01-span)
	start := rng.Int63n(cfg.Horizon - d)
	seg := trajectory.Segment{
		Start: start, End: start + d,
		X:     bezier1Poly(x0, x0+span, float64(d)),
		Y:     bezier1Poly(y0, y0+span, float64(d)),
		HalfW: trajectory.NewPolynomial(half),
		HalfH: trajectory.NewPolynomial(half),
	}
	return trajectory.FromSegments(id, []trajectory.Segment{seg})
}
