package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBox3(rng *rand.Rand) Box3 {
	var b Box3
	for d := 0; d < 3; d++ {
		lo := rng.Float64()
		b.Min[d] = lo
		b.Max[d] = lo + rng.Float64()
	}
	return b
}

func TestBox3FromBox(t *testing.T) {
	b := Box3FromBox(NewBox(Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.3, MaxY: 0.4}, Interval{Start: 100, End: 200}), 0.001)
	want := Box3{Min: [3]float64{0.1, 0.2, 0.1}, Max: [3]float64{0.3, 0.4, 0.2}}
	if b != want {
		t.Fatalf("got %v, want %v", b, want)
	}
}

func TestBox3Measures(t *testing.T) {
	b := Box3{Min: [3]float64{0, 0, 0}, Max: [3]float64{2, 3, 4}}
	if b.Volume() != 24 {
		t.Fatalf("Volume = %g", b.Volume())
	}
	if b.Margin() != 9 {
		t.Fatalf("Margin = %g", b.Margin())
	}
	if c := b.Center(); c != [3]float64{1, 1.5, 2} {
		t.Fatalf("Center = %v", c)
	}
	if EmptyBox3().Volume() != 0 || EmptyBox3().Margin() != 0 {
		t.Fatal("empty box measures should be 0")
	}
}

func TestBox3UnionIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randBox3(r), randBox3(r)
		u := a.Union(b)
		if !u.Contains(a) || !u.Contains(b) {
			return false
		}
		if u != b.Union(a) {
			return false
		}
		if a.Intersects(b) != (a.Overlap(b) > 0 || touching3(a, b)) {
			return false
		}
		if a.Overlap(b) > math.Min(a.Volume(), b.Volume())+1e-12 {
			return false
		}
		if a.CenterDistance2(a) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// touching3 reports boundary contact (intersecting with zero overlap
// volume).
func touching3(a, b Box3) bool {
	for d := 0; d < 3; d++ {
		if a.Min[d] > b.Max[d] || b.Min[d] > a.Max[d] {
			return false
		}
	}
	for d := 0; d < 3; d++ {
		if a.Min[d] == b.Max[d] || b.Min[d] == a.Max[d] {
			return true
		}
	}
	return false
}

func TestBox3EmptyIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := EmptyBox3()
	for i := 0; i < 30; i++ {
		b := randBox3(rng)
		if e.Union(b) != b || b.Union(e) != b {
			t.Fatal("EmptyBox3 is not the union identity")
		}
		if e.Intersects(b) || e.Contains(b) || b.Contains(e) {
			t.Fatal("EmptyBox3 relations should be false")
		}
	}
}
