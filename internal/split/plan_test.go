package split

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"stindex/internal/datagen"
	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

// refSplit is the splitting a merge run of its own, stopped at k+1 boxes,
// produces: MergeSplit for the volume objective (nil), the same two steps
// under any other measure.
func refSplit(o *trajectory.Object, k int, m Measure) Result {
	if m == nil {
		return MergeSplit(o, k)
	}
	return buildResultMeasure(o, mergeRun(o, k, m, nil), m)
}

// checkPlanMatchesRuns compares one MergePlan with a separate early-stopped
// run per budget: the curve element for element and the result for every
// k in [0, n-1] and above it, bit for bit.
func checkPlanMatchesRuns(t *testing.T, name string, o *trajectory.Object, m Measure) {
	t.Helper()
	n := o.Len()
	plan := MergePlan(o, m)
	run := m
	if run == nil {
		run = VolumeMeasure
		if want := MergeCurve(o, n-1); !slices.Equal(plan.Curve, want) {
			t.Fatalf("%s: plan curve %v, MergeCurve %v", name, plan.Curve, want)
		}
	}
	observed := make([]float64, n)
	mergeRun(o, 0, run, func(splits int, vol float64) { observed[splits] = vol })
	for l := range observed {
		if math.Float64bits(plan.Curve[l]) != math.Float64bits(observed[l]) {
			t.Fatalf("%s: plan curve[%d] = %g, the observed run's %g", name, l, plan.Curve[l], observed[l])
		}
	}
	for k := 0; k <= n+2; k++ {
		got, want := plan.Result(o, k), refSplit(o, k, m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s k=%d: plan result cuts %v volume %g, a run of its own cuts %v volume %g",
				name, k, got.Cuts, got.Volume, want.Cuts, want.Volume)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s k=%d: %v", name, k, err)
		}
	}
}

// TestMergePlanMatchesMergeSplit: the prefix of the full merge run is the
// run MergeSplit(o, k) performs, for stationary objects (every candidate
// ties at increase 0), objects of length 1 and 2, stepped and random ones
// and the generator's, under the volume objective and a query-cost one.
func TestMergePlanMatchesMergeSplit(t *testing.T) {
	objs := heapTestObjects()
	gen, err := datagen.Random(datagen.RandomConfig{N: 60, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range gen {
		objs["datagen-"+string(rune('A'+i))] = o
	}
	for name, o := range objs {
		checkPlanMatchesRuns(t, name+"/volume", o, nil)
		checkPlanMatchesRuns(t, name+"/query-cost", o, QueryCostMeasure(0.05, 0.02))
	}
}

// TestDPPlanMatchesDPSplit: the DP plan's curve and results are DPCurve's
// and DPSplit's.
func TestDPPlanMatchesDPSplit(t *testing.T) {
	for name, o := range heapTestObjects() {
		if o.Len() > 100 {
			continue
		}
		plan := DPPlan(o, nil)
		if want := DPCurve(o, o.Len()-1); !slices.Equal(plan.Curve, want) {
			t.Fatalf("%s: plan curve differs from DPCurve", name)
		}
		for _, k := range []int{0, 1, o.Len() / 2, o.Len() - 1, o.Len() + 3} {
			if got, want := plan.Result(o, k), DPSplit(o, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: plan result cuts %v, DPSplit %v", name, k, got.Cuts, want.Cuts)
			}
		}
	}
}

// FuzzMergePlanMatchesMergeSplit draws each instant's rectangle from a
// palette of four, so runs of equal rectangles — and with them ties
// between candidates — are the rule, and compares the plan with a run of
// its own at a fuzz-chosen budget and at the two ends.
func FuzzMergePlanMatchesMergeSplit(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0}, uint8(3))
	f.Add([]byte{0, 1, 1, 2, 2, 2, 3, 0, 0}, uint8(1))
	f.Add([]byte{3}, uint8(0))
	f.Add([]byte{1, 2}, uint8(9))
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 2, 2, 2, 2, 3, 1, 3, 1}, uint8(7))
	palette := []geom.Rect{
		{MinX: 0.25, MinY: 0.5, MaxX: 0.3125, MaxY: 0.625},
		{MinX: 0.375, MinY: 0.5, MaxX: 0.4375, MaxY: 0.625},
		{MinX: 0.25, MinY: 0.25, MaxX: 0.5, MaxY: 0.3125},
		{MinX: 0.75, MinY: 0.125, MaxX: 0.75, MaxY: 0.125},
	}
	f.Fuzz(func(t *testing.T, picks []byte, k uint8) {
		if len(picks) == 0 || len(picks) > 300 {
			t.Skip()
		}
		instants := make([]geom.Rect, len(picks))
		for i, p := range picks {
			instants[i] = palette[int(p)%len(palette)]
		}
		o, err := trajectory.NewObject(1, 0, instants)
		if err != nil {
			t.Skip()
		}
		for _, m := range []Measure{nil, QueryCostMeasure(0.125, 0)} {
			plan := MergePlan(o, m)
			for _, budget := range []int{0, int(k), o.Len() - 1} {
				if got, want := plan.Result(o, budget), refSplit(o, budget, m); !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d: plan cuts %v volume %g, a run of its own cuts %v volume %g",
						budget, got.Cuts, got.Volume, want.Cuts, want.Volume)
				}
			}
		}
	})
}
