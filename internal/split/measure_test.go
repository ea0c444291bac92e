package split

import (
	"math"
	"math/rand"
	"testing"
)

func TestVolumeMeasureMatchesClassicAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(25)
		k := rng.Intn(n)
		o := randObject(rng, int64(trial), n)
		if a, b := DPSplit(o, k), DPSplitMeasure(o, k, VolumeMeasure); math.Abs(a.Volume-b.Volume) > 1e-9 {
			t.Fatalf("trial %d: DPSplitMeasure(Volume) %g != DPSplit %g", trial, b.Volume, a.Volume)
		}
		if a, b := MergeSplit(o, k), MergePlan(o, VolumeMeasure).Result(o, k); math.Abs(a.Volume-b.Volume) > 1e-9 {
			t.Fatalf("trial %d: MergePlan(Volume) %g != MergeSplit %g", trial, b.Volume, a.Volume)
		}
		ca := DPCurve(o, k)
		cb := DPCurveMeasure(o, k, VolumeMeasure)
		for i := range ca {
			if math.Abs(ca[i]-cb[i]) > 1e-9 {
				t.Fatalf("trial %d: DP curves diverge at %d", trial, i)
			}
		}
	}
}

func TestQueryCostMeasureOptimality(t *testing.T) {
	// DP under the query-cost measure must dominate the merge heuristic
	// under the same measure, and both must validate structurally.
	rng := rand.New(rand.NewSource(2))
	m := QueryCostMeasure(0.05, 0.05)
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(25)
		k := rng.Intn(n)
		o := randObject(rng, int64(trial), n)
		dp := DPSplitMeasure(o, k, m)
		mg := MergePlan(o, m).Result(o, k)
		if err := dp.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := mg.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if mg.Volume < dp.Volume-1e-9*math.Max(1, dp.Volume) {
			t.Fatalf("trial %d: merge %g beats DP %g under the same measure — impossible",
				trial, mg.Volume, dp.Volume)
		}
	}
}

func TestQueryAwareObjectiveWinsOnItsOwnTerms(t *testing.T) {
	// Splitting to minimise the query-cost measure must yield a total
	// query-cost measure no larger than splitting to minimise volume,
	// when both are evaluated under the query-cost measure.
	rng := rand.New(rand.NewSource(3))
	m := QueryCostMeasure(0.1, 0.1)
	evaluate := func(r Result) float64 {
		total := 0.0
		for _, b := range r.Boxes {
			total += m(b.Rect, b.Interval.Length())
		}
		return total
	}
	better, trials := 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(40)
		k := 1 + rng.Intn(6)
		o := randObject(rng, int64(trial), n)
		costAware := evaluate(DPSplitMeasure(o, k, m))
		volumeOpt := evaluate(DPSplit(o, k))
		if costAware > volumeOpt+1e-9*math.Max(1, volumeOpt) {
			t.Fatalf("trial %d: cost-aware DP %g worse than volume DP %g under the cost measure",
				trial, costAware, volumeOpt)
		}
		trials++
		if costAware < volumeOpt-1e-9 {
			better++
		}
	}
	if better == 0 {
		t.Fatalf("cost-aware splitting never strictly improved in %d trials", trials)
	}
}

func TestQueryAwarePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	o := randObject(rng, 0, 20)
	m := QueryCostMeasure(0.02, 0.02)
	for name, plan := range map[string]Plan{"merge": MergePlan(o, m), "dp": DPPlan(o, m)} {
		curve := plan.Curve
		if len(curve) != 20 {
			t.Fatalf("%s: curve length %d", name, len(curve))
		}
		for i := 1; i < len(curve); i++ {
			if curve[i] > curve[i-1]+1e-9 {
				t.Fatalf("%s: query-cost curve not non-increasing at %d", name, i)
			}
		}
		r := plan.Result(o, 5)
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Volume-curve[r.Splits()]) > 1e-9*math.Max(1, r.Volume) {
			t.Fatalf("%s: result total %g != curve[%d] %g", name, r.Volume, r.Splits(), curve[r.Splits()])
		}
	}
}
