package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randRect(rng *rand.Rand) Rect {
	x, y := rng.Float64(), rng.Float64()
	return Rect{MinX: x, MinY: y, MaxX: x + rng.Float64(), MaxY: y + rng.Float64()}
}

func TestRectBasics(t *testing.T) {
	r := Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 6}
	if got := r.Area(); got != 8 {
		t.Fatalf("Area = %g, want 8", got)
	}
	if got := r.Margin(); got != 6 {
		t.Fatalf("Margin = %g, want 6", got)
	}
	if !r.Valid() {
		t.Fatal("rect should be valid")
	}
	if EmptyRect().Valid() {
		t.Fatal("empty rect should not be valid")
	}
	if !(Rect{MinX: math.NaN(), MaxX: 1, MinY: 0, MaxY: 1}).IsEmpty() && (Rect{MinX: math.NaN(), MaxX: 1, MinY: 0, MaxY: 1}).Valid() {
		t.Fatal("NaN rect should not be valid")
	}
}

func TestEmptyRectIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := EmptyRect()
	for i := 0; i < 50; i++ {
		r := randRect(rng)
		if e.Union(r) != r || r.Union(e) != r {
			t.Fatalf("EmptyRect is not the Union identity for %v", r)
		}
		if e.Intersects(r) || r.Intersects(e) {
			t.Fatal("EmptyRect should intersect nothing")
		}
		if e.Contains(r) || r.Contains(e) {
			t.Fatal("EmptyRect containment should be false")
		}
	}
	if e.Area() != 0 || e.Margin() != 0 {
		t.Fatal("EmptyRect has nonzero measures")
	}
}

func TestUnionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randRect(r), randRect(r), randRect(r)
		u := a.Union(b)
		// Commutative, covering, monotone, associative.
		if u != b.Union(a) {
			return false
		}
		if !u.Contains(a) || !u.Contains(b) {
			return false
		}
		if u.Area() < a.Area() || u.Area() < b.Area() {
			return false
		}
		if a.Union(b).Union(c) != a.Union(b.Union(c)) {
			return false
		}
		// Union with itself is itself.
		return a.Union(a) == a
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randRect(r), randRect(r)
		inter := a.Intersect(b)
		if a.Intersects(b) != !inter.IsEmpty() {
			return false
		}
		if !inter.IsEmpty() {
			if !a.Contains(inter) || !b.Contains(inter) {
				return false
			}
			if inter.Area() > math.Min(a.Area(), b.Area())+1e-12 {
				return false
			}
		}
		if a.Overlap(b) != inter.Area() {
			return false
		}
		// Enlargement is non-negative and zero iff containment.
		enl := a.Enlargement(b)
		if enl < -1e-12 {
			return false
		}
		if a.Contains(b) && enl > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervals(t *testing.T) {
	iv := Interval{Start: 3, End: 7}
	if !iv.ValidInterval() || iv.Length() != 4 {
		t.Fatalf("interval basics broken: %v", iv)
	}
	for tt, want := range map[int64]bool{2: false, 3: true, 6: true, 7: false} {
		if iv.ContainsInstant(tt) != want {
			t.Errorf("ContainsInstant(%d) != %v", tt, want)
		}
	}
	cases := []struct {
		a, b    Interval
		overlap bool
	}{
		{Interval{0, 5}, Interval{5, 10}, false}, // half-open: touching is disjoint
		{Interval{0, 5}, Interval{4, 10}, true},
		{Interval{0, 5}, Interval{0, 5}, true},
		{Interval{0, 5}, Interval{6, 10}, false},
		{Interval{0, Now}, Interval{1 << 40, 1<<40 + 1}, true},
	}
	for _, c := range cases {
		if c.a.Overlaps(c.b) != c.overlap || c.b.Overlaps(c.a) != c.overlap {
			t.Errorf("Overlaps(%v,%v) != %v", c.a, c.b, c.overlap)
		}
	}
	if (Interval{Start: 5, End: 5}).ValidInterval() {
		t.Error("empty interval should be invalid")
	}
	if (Interval{Start: 3, End: Now}).String() != "[3,now)" {
		t.Error("open interval formatting")
	}
}

func TestBoxVolume(t *testing.T) {
	b := NewBox(Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 3}, Interval{Start: 10, End: 15})
	if b.Volume() != 30 {
		t.Fatalf("Volume = %g, want 30", b.Volume())
	}
	open := NewBox(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Interval{Start: 0, End: Now})
	if !math.IsInf(open.Volume(), 1) {
		t.Fatal("open box volume should be infinite")
	}
	if NewBox(EmptyRect(), Interval{0, 5}).Volume() != 0 {
		t.Fatal("empty-rect box volume should be 0")
	}
}
