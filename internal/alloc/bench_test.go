package alloc

import (
	"fmt"
	"math/rand"
	"testing"

	"stindex/internal/split"
)

func benchCurves(b *testing.B, n int) *Curves {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return PlanCurves(randObjects(rng, n, 60), split.MergePlan, nil, 0)
}

func BenchmarkBuildCurves(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	objs := randObjects(rng, 1000, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PlanCurves(objs, split.MergePlan, nil, 0)
	}
}

// BenchmarkBuildCurvesParallel measures planning — one full merge run per
// object, keeping curve and merge order — across worker counts on 5000
// objects; workers=1 is the serial baseline, workers=0 resolves to
// GOMAXPROCS.
func BenchmarkBuildCurvesParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	objs := randObjects(rng, 5000, 60)
	for _, workers := range []int{1, 2, 4, 8, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PlanCurves(objs, split.MergePlan, nil, workers)
			}
		})
	}
}

// BenchmarkMaterializeParallel measures record materialization off the
// plans across worker counts under a 150% budget.
func BenchmarkMaterializeParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := PlanCurves(randObjects(rng, 5000, 60), split.MergePlan, nil, 0)
	a := LAGreedy(c, 7500)
	for _, workers := range []int{1, 2, 4, 8, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Materialize(a, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGreedy(b *testing.B) {
	c := benchCurves(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(c, 3000)
	}
}

// BenchmarkLAGreedy is the serial assignment stage of an offline round:
// the greedy pass and the look-ahead refinement over 2 000 planned
// objects at a 150% budget. Its heaps box nothing, so an op allocates the
// two heap arrays and the split vectors, not an entry per push.
func BenchmarkLAGreedy(b *testing.B) {
	c := benchCurves(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LAGreedy(c, 3000)
	}
}

func BenchmarkOptimal(b *testing.B) {
	c := benchCurves(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optimal(c, 450)
	}
}
