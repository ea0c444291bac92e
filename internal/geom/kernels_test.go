package geom

import (
	"math"
	"testing"
)

// The rectangle kernels take their minima and maxima with the builtin
// min/max, which the compiler inlines to MINSD/MAXSD; they used to call
// math.Min/math.Max. These references are the kernels as they were, and
// the tests below hold the kernels to them bit for bit.
//
// The two families agree on every float that is not a NaN, signed zeros
// (-0 < +0) and infinities included. They part on NaN operands only:
// math.Min(-Inf, NaN) is -Inf and math.Max(+Inf, NaN) is +Inf where the
// builtin returns NaN, and math returns one canonical NaN where the
// builtin passes an operand's payload through. Everything that reads
// rectangles from outside (stio, ingest, trajectory.NewObject, the
// PPR-tree's updates) refuses NaN through Rect.Valid, so no stored bit of
// a meaningful index depends on that; the tests pin the difference down
// to exactly that much.

func refUnion(r, s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

func refIntersect(r, s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

func refUnionBox3(b, o Box3) Box3 {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	out := b
	for d := 0; d < 3; d++ {
		out.Min[d] = math.Min(out.Min[d], o.Min[d])
		out.Max[d] = math.Max(out.Max[d], o.Max[d])
	}
	return out
}

func refOverlapVolume(b, o Box3) float64 {
	v := 1.0
	for d := 0; d < 3; d++ {
		lo := math.Max(b.Min[d], o.Min[d])
		hi := math.Min(b.Max[d], o.Max[d])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

func rectCoords(r Rect) []float64 { return []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} }

func box3Coords(b Box3) []float64 { return append(b.Min[:], b.Max[:]...) }

func anyNaN(vs ...[]float64) bool {
	for _, v := range vs {
		for _, x := range v {
			if math.IsNaN(x) {
				return true
			}
		}
	}
	return false
}

// sameCoords holds a union to the reference coordinate by coordinate:
// identical bits, or — only when an operand carried a NaN — a NaN where
// the reference has a NaN of another payload or the infinity that
// absorbed one.
func sameCoords(t *testing.T, what string, got, want []float64, nanOperand bool) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) == math.Float64bits(w) {
			continue
		}
		if nanOperand && math.IsNaN(g) && (math.IsNaN(w) || math.IsInf(w, 0)) {
			continue
		}
		t.Errorf("%s: coordinate %d is %v (%#x), math.Min/Max reference %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
	}
}

// sameScalar compares a derived quantity. Over NaN coordinates it
// inherits the coordinate-level difference in ways that do not reduce to
// one rule — an intersection's emptiness test reads the very coordinate
// that differs — so those are compared only where the index can produce
// them: without NaN.
func sameScalar(t *testing.T, what string, got, want float64, nanOperand bool) {
	t.Helper()
	if !nanOperand && math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s = %v (%#x), math.Min/Max reference %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func checkRectKernels(t *testing.T, r, s Rect) {
	t.Helper()
	nan := anyNaN(rectCoords(r), rectCoords(s))
	sameCoords(t, "Union", rectCoords(r.Union(s)), rectCoords(refUnion(r, s)), nan)
	if !nan {
		sameCoords(t, "Intersect", rectCoords(r.Intersect(s)), rectCoords(refIntersect(r, s)), false)
	}
	sameScalar(t, "Enlargement", r.Enlargement(s), refUnion(r, s).Area()-r.Area(), nan)
	sameScalar(t, "Overlap", r.Overlap(s), refIntersect(r, s).Area(), nan)
}

func checkBox3Kernels(t *testing.T, a, b Box3) {
	t.Helper()
	nan := anyNaN(box3Coords(a), box3Coords(b))
	sameCoords(t, "Union", box3Coords(a.Union(b)), box3Coords(refUnionBox3(a, b)), nan)
	sameScalar(t, "Overlap", a.Overlap(b), refOverlapVolume(a, b), nan)
}

// kernelEdgeValues are the coordinates the edge table is built from.
var kernelEdgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.25, math.SmallestNonzeroFloat64, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000123),
}

// TestRectKernelsMatchMathOnEdges: every rectangle whose coordinates come
// from the edge values — empty and inverted ones, signed zeros against
// each other, infinite bounds, NaN in any position — against a spread of
// partners, and the same for boxes.
func TestRectKernelsMatchMathOnEdges(t *testing.T) {
	v := kernelEdgeValues
	partners := []Rect{
		EmptyRect(),
		{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}, // inverted
		{},                                   // the origin, +0 everywhere
		{MinX: math.Copysign(0, -1), MinY: math.Copysign(0, -1), MaxX: math.Copysign(0, -1), MaxY: math.Copysign(0, -1)},
		{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1},
		{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)},
		{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: math.NaN()},
	}
	for _, x0 := range v {
		for _, y0 := range v {
			for _, x1 := range v {
				for _, y1 := range v {
					r := Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
					for _, s := range partners {
						checkRectKernels(t, r, s)
						checkRectKernels(t, s, r)
					}
					if t.Failed() {
						t.Fatalf("first failure at %v", r)
					}
				}
			}
		}
	}
	for _, lo := range v {
		for _, hi := range v {
			for _, z := range v {
				a := Box3{Min: [3]float64{lo, z, lo}, Max: [3]float64{hi, hi, z}}
				for _, s := range partners {
					b := Box3{Min: [3]float64{s.MinX, s.MinY, s.MinX}, Max: [3]float64{s.MaxX, s.MaxY, s.MaxY}}
					checkBox3Kernels(t, a, b)
					checkBox3Kernels(t, b, a)
				}
				if t.Failed() {
					t.Fatalf("first failure at %v", a)
				}
			}
		}
	}
}

func FuzzRectKernelsMatchMath(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 2.0, 0.0, 1.0, 0.5, 3.0)
	f.Add(math.Copysign(0, -1), 0.0, 0.0, math.Copysign(0, -1), 0.0, math.Copysign(0, -1), math.Copysign(0, -1), 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1), 0.0, 0.0, 1.0, 1.0, math.Inf(-1), math.Inf(1), 0.0, 1.0)
	f.Add(math.NaN(), 0.0, 1.0, 1.0, math.Inf(-1), 0.0, math.Inf(1), 1.0, 0.0, 1.0, math.NaN(), 1.0)
	f.Fuzz(func(t *testing.T, rx0, ry0, rx1, ry1, sx0, sy0, sx1, sy1, rz0, rz1, sz0, sz1 float64) {
		r := Rect{MinX: rx0, MinY: ry0, MaxX: rx1, MaxY: ry1}
		s := Rect{MinX: sx0, MinY: sy0, MaxX: sx1, MaxY: sy1}
		checkRectKernels(t, r, s)
		checkBox3Kernels(t,
			Box3{Min: [3]float64{rx0, ry0, rz0}, Max: [3]float64{rx1, ry1, rz1}},
			Box3{Min: [3]float64{sx0, sy0, sz0}, Max: [3]float64{sx1, sy1, sz1}})
	})
}
