package trajectory

import (
	"math"
	"math/rand"
	"testing"

	"stindex/internal/geom"
)

// rasterise evaluates polynomials into a raw track.
func rasterise(n int, fx, fy, fhw, fhh func(float64) float64) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		t := float64(i)
		cx, cy, hw, hh := fx(t), fy(t), fhw(t), fhh(t)
		out[i] = geom.Rect{MinX: cx - hw, MinY: cy - hh, MaxX: cx + hw, MaxY: cy + hh}
	}
	return out
}

func TestFitRecoversExactQuadratic(t *testing.T) {
	raw := rasterise(40,
		func(t float64) float64 { return 0.1 + 0.01*t + 0.0002*t*t },
		func(t float64) float64 { return 0.7 - 0.005*t },
		func(float64) float64 { return 0.01 },
		func(float64) float64 { return 0.02 },
	)
	segs, err := FitSegments(100, raw, FitConfig{MaxDegree: 2, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("an exact quadratic should fit one segment, got %d", len(segs))
	}
	o, worst, err := FitObject(1, 100, raw, FitConfig{MaxDegree: 2, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-9 {
		t.Fatalf("worst deviation %g for an exactly representable motion", worst)
	}
	if o.Start() != 100 || o.Len() != 40 {
		t.Fatalf("fitted object lifetime wrong: start %d len %d", o.Start(), o.Len())
	}
}

func TestFitBoundsError(t *testing.T) {
	// A sine track cannot be represented exactly by low-degree
	// polynomials; the fit must segment it and respect the tolerance.
	raw := rasterise(120,
		func(t float64) float64 { return 0.5 + 0.3*math.Sin(t/8) },
		func(t float64) float64 { return 0.5 + 0.3*math.Cos(t/11) },
		func(float64) float64 { return 0.01 },
		func(float64) float64 { return 0.01 },
	)
	const tol = 0.004
	o, worst, err := FitObject(2, 0, raw, FitConfig{MaxDegree: 2, Tolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	if worst > tol+1e-12 {
		t.Fatalf("worst deviation %g exceeds tolerance %g", worst, tol)
	}
	if len(o.Breakpoints()) == 0 {
		t.Fatal("a sine track should need several segments")
	}
	// A looser tolerance must not need more segments.
	loose, _, err := FitObject(3, 0, raw, FitConfig{MaxDegree: 2, Tolerance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(loose.Breakpoints()) > len(o.Breakpoints()) {
		t.Fatalf("loose tolerance used %d segments, tight used %d",
			len(loose.Breakpoints())+1, len(o.Breakpoints())+1)
	}
}

func TestFitHigherDegreeNeedsFewerSegments(t *testing.T) {
	raw := rasterise(150,
		func(t float64) float64 { return 0.5 + 0.2*math.Sin(t/10) },
		func(t float64) float64 { return 0.4 + 0.001*t },
		func(float64) float64 { return 0.01 },
		func(float64) float64 { return 0.01 },
	)
	segsAt := func(degree int) int {
		segs, err := FitSegments(0, raw, FitConfig{MaxDegree: degree, Tolerance: 0.003})
		if err != nil {
			t.Fatal(err)
		}
		return len(segs)
	}
	d1, d4 := segsAt(1), segsAt(4)
	if d4 > d1 {
		t.Fatalf("degree 4 used %d segments, degree 1 used %d", d4, d1)
	}
	if d1 < 2 {
		t.Fatalf("degree 1 should need several segments for a sine, got %d", d1)
	}
}

func TestFitNoisyTrackStaysWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	raw := rasterise(200,
		func(t float64) float64 { return 0.3 + 0.002*t + 0.002*rng.Float64() },
		func(t float64) float64 { return 0.6 - 0.001*t + 0.002*rng.Float64() },
		func(float64) float64 { return 0.01 + 0.001*rng.Float64() },
		func(float64) float64 { return 0.01 },
	)
	const tol = 0.01
	_, worst, err := FitObject(4, 0, raw, FitConfig{Tolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	if worst > tol+1e-12 {
		t.Fatalf("worst deviation %g exceeds tolerance %g on noisy data", worst, tol)
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := FitSegments(0, nil, FitConfig{}); err == nil {
		t.Fatal("accepted empty track")
	}
	if _, err := FitSegments(0, []geom.Rect{{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}}, FitConfig{}); err == nil {
		t.Fatal("accepted invalid rect")
	}
	if _, err := FitSegments(0, rasterise(5, zf, zf, zf, zf), FitConfig{MaxDegree: 9}); err == nil {
		t.Fatal("accepted absurd degree")
	}
	if _, err := FitSegments(0, rasterise(5, zf, zf, zf, zf), FitConfig{Tolerance: -1}); err == nil {
		t.Fatal("accepted negative tolerance")
	}
}

func zf(float64) float64 { return 0.1 }

func TestSolveLinear(t *testing.T) {
	// 2x + y = 5; x - y = 1  ->  x = 2, y = 1.
	x := solveLinear([][]float64{{2, 1}, {1, -1}}, []float64{5, 1})
	if x == nil || math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("solveLinear = %v", x)
	}
	if got := solveLinear([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); got != nil {
		t.Fatalf("singular system should return nil, got %v", got)
	}
}
