package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"stindex/internal/trajectory"
)

// City is a node of the railway map, positioned on a miles-scaled plane.
type City struct {
	Name string
	X, Y float64 // miles
}

// Track is an undirected straight-line railway between two cities,
// identified by their indices in the city list.
type Track struct {
	A, B int
}

// RailwayMap returns the fixed 22-city, 51-track map used by the skewed
// datasets. The layout approximates California and New York with a few
// in-between cities and cross-country trunk lines; inter-city distances
// roughly match reality (the plane is in miles).
func RailwayMap() ([]City, []Track) {
	cities := []City{
		// California (0-9)
		{"San Francisco", 40, 620},
		{"Oakland", 52, 622},
		{"San Jose", 62, 588},
		{"Sacramento", 95, 665},
		{"Fresno", 165, 520},
		{"Bakersfield", 205, 430},
		{"Santa Barbara", 160, 350},
		{"Los Angeles", 225, 320},
		{"Long Beach", 230, 300},
		{"San Diego", 285, 230},
		// In-between (10-15)
		{"Las Vegas", 430, 400},
		{"Salt Lake City", 700, 625},
		{"Denver", 1010, 560},
		{"Kansas City", 1460, 520},
		{"Chicago", 1860, 685},
		{"Cleveland", 2160, 660},
		// New York (16-21)
		{"Buffalo", 2295, 705},
		{"Rochester", 2350, 715},
		{"Syracuse", 2425, 705},
		{"Utica", 2472, 702},
		{"Albany", 2540, 685},
		{"New York City", 2565, 560},
	}
	tracks := []Track{
		// California network (20 tracks)
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5},
		{5, 6}, {5, 7}, {6, 7}, {7, 8}, {8, 9}, {7, 9}, {2, 6}, {3, 10},
		{5, 10}, {7, 10}, {9, 10}, {4, 6},
		// New York network (12 tracks)
		{16, 17}, {17, 18}, {18, 19}, {19, 20}, {20, 21}, {18, 20},
		{16, 18}, {17, 19}, {21, 19}, {21, 16}, {20, 16}, {21, 18},
		// Cross-country trunks (19 tracks)
		{10, 11}, {3, 11}, {7, 11}, {11, 12}, {10, 12}, {12, 13}, {11, 13},
		{13, 14}, {12, 14}, {14, 15}, {13, 15}, {15, 16}, {14, 16}, {15, 21},
		{15, 17}, {14, 21}, {12, 15}, {10, 13}, {11, 14},
	}
	return cities, tracks
}

// The paper's railway datasets (§V): a train makes up to maxStops stops
// and travels at most maxTravelHours at a uniform speed in [minSpeed,
// maxSpeed] mph, one time instant standing for hoursPerInstant hours.
const (
	maxStops        = 10
	maxTravelHours  = 36
	minSpeed        = 60
	maxSpeed        = 75
	hoursPerInstant = 2
)

// RailwayConfig parameterises the skewed railway datasets: N trains moving
// along the map's tracks, never bouncing straight back to the city they
// came from.
type RailwayConfig struct {
	N       int
	Horizon int64 // default 1000 instants
	Seed    int64
}

func (c RailwayConfig) withDefaults() (RailwayConfig, error) {
	if c.Horizon == 0 {
		c.Horizon = 1000
	}
	if c.N <= 0 {
		return c, fmt.Errorf("datagen: N must be positive, got %d", c.N)
	}
	return c, nil
}

// Railway generates a skewed dataset of trains moving on the railway map.
// Trains are points; their trajectories are piecewise linear along the
// straight tracks, so the Piecewise splitting baseline splits exactly at
// the stops.
func Railway(cfg RailwayConfig) ([]*trajectory.Object, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cities, tracks := RailwayMap()
	adj := make([][]int, len(cities))
	for _, tr := range tracks {
		adj[tr.A] = append(adj[tr.A], tr.B)
		adj[tr.B] = append(adj[tr.B], tr.A)
	}
	// Normalise the miles plane into the unit square with a small border.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, c := range cities {
		minX, maxX = math.Min(minX, c.X), math.Max(maxX, c.X)
		minY, maxY = math.Min(minY, c.Y), math.Max(maxY, c.Y)
	}
	scale := math.Max(maxX-minX, maxY-minY) * 1.04
	norm := func(c City) (float64, float64) {
		return 0.02 + (c.X-minX)/scale, 0.02 + (c.Y-minY)/scale
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	objs := make([]*trajectory.Object, 0, cfg.N)
	for id := 0; id < cfg.N; id++ {
		o, err := railwayTrain(rng, int64(id), cfg, cities, adj, norm)
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
	return objs, nil
}

func railwayTrain(rng *rand.Rand, id int64, cfg RailwayConfig, cities []City,
	adj [][]int, norm func(City) (float64, float64)) (*trajectory.Object, error) {

	speed := uniform(rng, minSpeed, maxSpeed)
	stops := 1 + rng.Intn(maxStops)

	// Random walk over the track graph with no immediate backtracking.
	route := []int{rng.Intn(len(cities))}
	prev := -1
	hours := 0.0
	for len(route)-1 < stops {
		cur := route[len(route)-1]
		var options []int
		for _, nb := range adj[cur] {
			if nb != prev {
				options = append(options, nb)
			}
		}
		if len(options) == 0 {
			options = adj[cur] // dead end: allow turning back
		}
		next := options[rng.Intn(len(options))]
		d := cityDistance(cities[cur], cities[next])
		if hours+d/speed > maxTravelHours {
			break
		}
		hours += d / speed
		prev = cur
		route = append(route, next)
	}
	if len(route) < 2 {
		// The very first leg already exceeded the travel budget (a long
		// trunk from an unlucky start); take the shortest available leg.
		cur := route[0]
		best, bestD := -1, math.Inf(1)
		for _, nb := range adj[cur] {
			if d := cityDistance(cities[cur], cities[nb]); d < bestD {
				best, bestD = nb, d
			}
		}
		route = append(route, best)
	}

	// Convert the route into contiguous linear segments in discrete time,
	// dropping trailing legs that would not fit inside the horizon.
	durations := make([]int64, 0, len(route)-1)
	var lifetime int64
	for i := 0; i+1 < len(route); i++ {
		d := cityDistance(cities[route[i]], cities[route[i+1]])
		legHours := d / speed
		inst := int64(math.Round(legHours / hoursPerInstant))
		if inst < 1 {
			inst = 1
		}
		if lifetime+inst >= cfg.Horizon {
			if len(durations) == 0 {
				durations = append(durations, cfg.Horizon-1)
				lifetime = cfg.Horizon - 1
			}
			break
		}
		durations = append(durations, inst)
		lifetime += inst
	}
	route = route[:len(durations)+1]
	start := rng.Int63n(cfg.Horizon - lifetime)

	segs := make([]trajectory.Segment, 0, len(route)-1)
	t := start
	for i := 0; i+1 < len(route); i++ {
		ax, ay := norm(cities[route[i]])
		bx, by := norm(cities[route[i+1]])
		d := durations[i]
		segs = append(segs, trajectory.Segment{
			Start: t, End: t + d,
			X:     bezier1Poly(ax, bx, float64(d)),
			Y:     bezier1Poly(ay, by, float64(d)),
			HalfW: trajectory.NewPolynomial(0),
			HalfH: trajectory.NewPolynomial(0),
		})
		t += d
	}
	return trajectory.FromSegments(id, segs)
}

func cityDistance(a, b City) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}
