package rstar

import (
	"fmt"
	"math/rand"
	"testing"

	"stindex/internal/geom"
)

// BenchmarkBulkLoadSTRParallel measures the packed build across worker
// counts; workers=1 is the serial baseline, 0 resolves to GOMAXPROCS.
func BenchmarkBulkLoadSTRParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	items := make([]Item, 100000)
	for i := range items {
		items[i] = Item{Box: randBox3(rng), Ref: uint64(i)}
	}
	for _, workers := range []int{1, 2, 4, 8, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BulkLoadSTR(Options{BufferPages: 128, Parallelism: workers}, items); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	boxes := make([]geom.Box3, 5000)
	for i := range boxes {
		boxes[i] = randBox3(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := New(Options{BufferPages: 128})
		if err != nil {
			b.Fatal(err)
		}
		// One write-back bracket, as stindex.BuildRStar inserts.
		err = tree.Batch(func() error {
			for j, box := range boxes {
				if err := tree.Insert(box, uint64(j)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkLoadVsInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	items := make([]Item, 5000)
	for i := range items {
		items[i] = Item{Box: randBox3(rng), Ref: uint64(i)}
	}
	b.Run("str", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BulkLoadSTR(Options{BufferPages: 128}, items); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree, err := New(Options{BufferPages: 128})
			if err != nil {
				b.Fatal(err)
			}
			for _, it := range items {
				if err := tree.Insert(it.Box, it.Ref); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tree, err := New(Options{BufferPages: 256})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := tree.Insert(randBox3(rng), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Count(randBox3(rng)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNearestSearch is a 10-nearest-neighbour cut-off search at a
// random time coordinate: the callback stops the best-first walk at the
// tenth emitted entry.
func BenchmarkNearestSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tree, err := New(Options{BufferPages: 256})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := tree.Insert(randBox3(rng), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	left := 0
	stopAtTen := func(float64, uint64) bool { left--; return left > 0 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		left = 10
		if err := tree.NearestSearch(rng.Float64(), rng.Float64(), rng.Float64(), stopAtTen); err != nil {
			b.Fatal(err)
		}
	}
}
