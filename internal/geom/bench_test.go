package geom

import (
	"math/rand"
	"testing"
)

func BenchmarkRectUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rects := make([]Rect, 1024)
	for i := range rects {
		rects[i] = randRect(rng)
	}
	b.ResetTimer()
	acc := EmptyRect()
	for i := 0; i < b.N; i++ {
		acc = acc.Union(rects[i&1023])
	}
	_ = acc
}

func BenchmarkRectIntersects(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rects := make([]Rect, 1024)
	for i := range rects {
		rects[i] = randRect(rng)
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if rects[i&1023].Intersects(rects[(i+7)&1023]) {
			hits++
		}
	}
	_ = hits
}

func BenchmarkBox3Operations(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	boxes := make([]Box3, 1024)
	for i := range boxes {
		boxes[i] = randBox3(rng)
	}
	b.ResetTimer()
	total := 0.0
	for i := 0; i < b.N; i++ {
		a, c := boxes[i&1023], boxes[(i+13)&1023]
		total += a.Union(c).Volume() + a.Overlap(c)
	}
	_ = total
}
