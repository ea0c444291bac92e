package trajectory

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"stindex/internal/geom"
)

func TestPolynomialEval(t *testing.T) {
	cases := []struct {
		p    Polynomial
		t    float64
		want float64
	}{
		{NewPolynomial(), 5, 0},
		{NewPolynomial(3), 100, 3},
		{NewPolynomial(1, 2), 4, 9},
		{NewPolynomial(1, 0, 2), 3, 19},
		{NewPolynomial(0, -1, 0, 1), 2, 6}, // t³ - t at 2
	}
	for _, c := range cases {
		if got := c.p.Eval(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v at %g = %g, want %g", c.p, c.t, got, c.want)
		}
	}
}

func TestNewObjectValidation(t *testing.T) {
	if _, err := NewObject(1, 0, nil); !errors.Is(err, ErrNoSegments) {
		t.Fatalf("empty object error = %v", err)
	}
	bad := []geom.Rect{{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}}
	if _, err := NewObject(1, 0, bad); err == nil {
		t.Fatal("accepted inverted rect")
	}
}

func TestObjectAccessors(t *testing.T) {
	rects := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2},
		{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3},
	}
	o, err := NewObject(7, 100, rects)
	if err != nil {
		t.Fatal(err)
	}
	if o.Start() != 100 || o.End() != 103 || o.Len() != 3 {
		t.Fatalf("lifetime wrong: [%d,%d) len %d", o.Start(), o.End(), o.Len())
	}
	if o.At(101) != rects[1] {
		t.Fatalf("At(101) = %v", o.At(101))
	}
	mbr := o.MBR()
	if mbr.Rect != (geom.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3}) {
		t.Fatalf("MBR rect = %v", mbr.Rect)
	}
	if mbr.Interval != (geom.Interval{Start: 100, End: 103}) {
		t.Fatalf("MBR interval = %v", mbr.Interval)
	}
	if b := o.BoxOf(0, 2); b.Volume() != 4*2 {
		t.Fatalf("BoxOf(0,2).Volume = %g, want 8", b.Volume())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("At outside lifetime should panic")
		}
	}()
	o.At(99)
}

func TestFromSegmentsContiguity(t *testing.T) {
	_, err := FromSegments(1, []Segment{
		{Start: 0, End: 5, X: NewPolynomial(0.5), Y: NewPolynomial(0.5)},
		{Start: 6, End: 10, X: NewPolynomial(0.5), Y: NewPolynomial(0.5)},
	})
	if !errors.Is(err, ErrGap) {
		t.Fatalf("gap error = %v", err)
	}
	if _, err := FromSegments(1, nil); !errors.Is(err, ErrNoSegments) {
		t.Fatalf("no-segment error = %v", err)
	}
	if _, err := FromSegments(1, []Segment{{Start: 5, End: 5}}); err == nil {
		t.Fatal("accepted empty segment")
	}
}

func TestFromSegmentsRasterisation(t *testing.T) {
	o, err := FromSegments(2, []Segment{
		{
			Start: 10, End: 14,
			X:     NewPolynomial(0.1, 0.1), // local: 0.1, 0.2, 0.3, 0.4
			Y:     NewPolynomial(0.5),
			HalfW: NewPolynomial(0.05),
			HalfH: NewPolynomial(0.05),
		},
		{
			Start: 14, End: 16,
			X:     NewPolynomial(0.5),
			Y:     NewPolynomial(0.5, 0, 0.01), // local: 0.5, 0.51
			HalfW: NewPolynomial(0.05),
			HalfH: NewPolynomial(-1), // clamped to a degenerate extent
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Len() != 6 {
		t.Fatalf("Len = %d", o.Len())
	}
	r := o.At(11)
	if math.Abs(r.MinX-0.15) > 1e-12 || math.Abs(r.MaxX-0.25) > 1e-12 {
		t.Fatalf("At(11) x-range [%g,%g], want [0.15,0.25]", r.MinX, r.MaxX)
	}
	r = o.At(15)
	if r.MinY != r.MaxY {
		t.Fatalf("negative half-extent should clamp to a point, got %v", r)
	}
	if got := o.Breakpoints(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("Breakpoints = %v, want [4]", got)
	}
}

func TestSetBreakpoints(t *testing.T) {
	rects := make([]geom.Rect, 10)
	for i := range rects {
		rects[i] = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	o, err := NewObject(3, 0, rects)
	if err != nil {
		t.Fatal(err)
	}
	o.SetBreakpoints([]int{0, 3, 3, 2, 7, 10, 12})
	if got := o.Breakpoints(); len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("SetBreakpoints cleaned to %v, want [3 7]", got)
	}
}

func TestSpanVolumes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	prop := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%20
		rects := make([]geom.Rect, n)
		for i := range rects {
			x, y := r.Float64(), r.Float64()
			rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + r.Float64()*0.2, MaxY: y + r.Float64()*0.2}
		}
		o, err := NewObject(0, 0, rects)
		if err != nil {
			return false
		}
		end := 1 + r.Intn(n)
		dst := make([]float64, n)
		got := SpanVolumes(o, end, dst)
		for j := 0; j < end; j++ {
			want := o.BoxOf(j, end).Volume()
			if math.Abs(got[j]-want) > 1e-9*math.Max(1, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// PrefixMBRs returns, for each i in [0, Len()], the union rectangle of the
// first i instants. PrefixMBRs()[0] is the empty rectangle.
func PrefixMBRs(o *Object) []geom.Rect {
	out := make([]geom.Rect, o.Len()+1)
	out[0] = geom.EmptyRect()
	for i := 0; i < o.Len(); i++ {
		out[i+1] = out[i].Union(o.InstantRect(i))
	}
	return out
}

// SuffixMBRs returns, for each i in [0, Len()], the union rectangle of the
// instants from i to the end. SuffixMBRs()[Len()] is the empty rectangle.
func SuffixMBRs(o *Object) []geom.Rect {
	n := o.Len()
	out := make([]geom.Rect, n+1)
	out[n] = geom.EmptyRect()
	for i := n - 1; i >= 0; i-- {
		out[i] = out[i+1].Union(o.InstantRect(i))
	}
	return out
}

func TestPrefixSuffixMBRs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rects := make([]geom.Rect, 15)
	for i := range rects {
		x, y := rng.Float64(), rng.Float64()
		rects[i] = geom.Rect{MinX: x, MinY: y, MaxX: x + 0.1, MaxY: y + 0.1}
	}
	o, err := NewObject(0, 0, rects)
	if err != nil {
		t.Fatal(err)
	}
	pre := PrefixMBRs(o)
	suf := SuffixMBRs(o)
	if len(pre) != 16 || len(suf) != 16 {
		t.Fatalf("lengths %d/%d", len(pre), len(suf))
	}
	if !pre[0].IsEmpty() || !suf[15].IsEmpty() {
		t.Fatal("sentinel entries should be empty")
	}
	for i := 1; i <= 15; i++ {
		want := o.BoxOf(0, i).Rect
		if pre[i] != want {
			t.Fatalf("prefix[%d] = %v, want %v", i, pre[i], want)
		}
	}
	for i := 0; i < 15; i++ {
		want := o.BoxOf(i, 15).Rect
		if suf[i] != want {
			t.Fatalf("suffix[%d] = %v, want %v", i, suf[i], want)
		}
	}
	// Prefix ∪ suffix at any cut covers the whole object.
	whole := o.MBR().Rect
	for c := 1; c < 15; c++ {
		if pre[c].Union(suf[c]) != whole {
			t.Fatalf("cut %d: prefix ∪ suffix != whole MBR", c)
		}
	}
}

func TestBoxOfPanics(t *testing.T) {
	o, err := NewObject(0, 0, []geom.Rect{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range [][2]int{{0, 0}, {1, 0}, {-1, 1}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BoxOf(%d,%d) should panic", span[0], span[1])
				}
			}()
			o.BoxOf(span[0], span[1])
		}()
	}
}

// bytesPerRun is the heap bytes one call of fn allocates, averaged.
func bytesPerRun(fn func()) uint64 {
	const runs = 16
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / runs
}

// TestConstructorsAllocateInstantsOnce: FromSegments and FromCorners
// keep the rectangle slice they fill, and NewObject copies its caller's
// once, so each allocates one rectangle per instant, not two.
func TestConstructorsAllocateInstantsOnce(t *testing.T) {
	const n = 4096
	seg := Segment{Start: 10, End: 10 + n, X: NewPolynomial(0.2, 1e-4), Y: NewPolynomial(0.3), HalfW: NewPolynomial(0.01), HalfH: NewPolynomial(0.02)}
	rects := make([]geom.Rect, n)
	corners := make([][4]float64, n)
	for i := range rects {
		x := float64(i) / n
		rects[i] = geom.Rect{MinX: x, MinY: 0.1, MaxX: x + 0.01, MaxY: 0.2}
		corners[i] = [4]float64{x, 0.1, x + 0.01, 0.2}
	}
	instants := uint64(n * unsafe.Sizeof(geom.Rect{}))
	for name, build := range map[string]func() (*Object, error){
		"FromSegments": func() (*Object, error) { return FromSegments(1, []Segment{seg}) },
		"FromCorners":  func() (*Object, error) { return FromCorners(1, 10, corners) },
		"NewObject":    func() (*Object, error) { return NewObject(1, 10, rects) },
	} {
		if _, err := build(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := bytesPerRun(func() { build() }); got > instants+instants/4 {
			t.Fatalf("%s allocates %d bytes for %d bytes of rectangles", name, got, instants)
		}
	}
	o, err := FromCorners(1, 10, corners)
	if err != nil {
		t.Fatal(err)
	}
	n0, err := NewObject(1, 10, rects)
	if err != nil {
		t.Fatal(err)
	}
	rects[0].MaxX = 0.5 // NewObject's copy is the object's own
	if n0.InstantRect(0) != o.InstantRect(0) {
		t.Fatalf("NewObject kept its caller's slice: %v, want %v", n0.InstantRect(0), o.InstantRect(0))
	}
}
