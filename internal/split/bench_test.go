package split

import (
	"math/rand"
	"testing"

	"stindex/internal/datagen"
)

func BenchmarkDPSplit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{20, 50, 100} {
		o := randObject(rng, 0, n)
		b.Run(map[int]string{20: "n20", 50: "n50", 100: "n100"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DPSplit(o, n/2)
			}
		})
	}
}

func BenchmarkMergeSplit(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{20, 100, 500} {
		o := randObject(rng, 0, n)
		b.Run(map[int]string{20: "n20", 100: "n100", 500: "n500"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MergeSplit(o, n/2)
			}
		})
	}
}

// BenchmarkMergePlan is the split stage of an offline build on one core:
// a full merge run per object over datagen.Random objects, whose linear
// motion pieces give the candidate heap the exact ties generated data has
// (random-walk objects have none). One op plans 2 000 objects (101 552
// instants); each plan allocates its curve and its merge order.
func BenchmarkMergePlan(b *testing.B) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 2000, Horizon: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range objs {
			MergePlan(o, nil)
		}
	}
}

func BenchmarkMergeCurve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	o := randObject(rng, 0, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MergeCurve(o, 99)
	}
}

func BenchmarkDPCurve(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	o := randObject(rng, 0, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DPCurve(o, 99)
	}
}

// BenchmarkAblationMergeHeap compares MergeSplit's lazy-invalidation heap
// against the O(n²) rescanning reference implementation.
func BenchmarkAblationMergeHeap(b *testing.B) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 200, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, o := range objs {
				MergeSplit(o, o.Len()/2)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, o := range objs {
				MergeSplitNaive(o, o.Len()/2)
			}
		}
	})
}
