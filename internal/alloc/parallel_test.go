package alloc

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"stindex/internal/split"
)

// TestParallelBuildCurvesMatchesSerial asserts the determinism guarantee
// of the worker pool: any worker count yields curves bit-identical to the
// one-worker (serial) run, for both curve builders. Run under -race this
// also exercises the pooled DP/merge scratch buffers concurrently.
func TestParallelBuildCurvesMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs := randObjects(rng, 300, 40)
	builders := []struct {
		name string
		fn   CurveFunc
	}{
		{"merge", split.MergeCurve},
		{"dp", split.DPCurve},
	}
	for _, bld := range builders {
		want := BuildCurvesParallel(objs, bld.fn, 1)
		for _, workers := range []int{2, runtime.NumCPU(), 0} {
			got := BuildCurvesParallel(objs, bld.fn, workers)
			if !reflect.DeepEqual(want.curves, got.curves) {
				t.Fatalf("%s: workers=%d curves differ from serial", bld.name, workers)
			}
		}
	}
}

// TestParallelMaterializeMatchesSerial checks that concurrent record
// materialization reproduces the serial results exactly — same cuts, same
// boxes, same volumes, same order — through the separate-splitter wrapper
// and off the plans, and that the two paths agree: PlanCurves has
// BuildCurvesParallel's curves and Materialize MaterializeParallel's
// results, for the merge and the DP planner. Under -race this also runs
// concurrent Result calls over the pooled scratch.
func TestParallelMaterializeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	objs := randObjects(rng, 200, 30)
	for _, alg := range []struct {
		name     string
		curve    CurveFunc
		splitter Splitter
		planner  split.Planner
	}{
		{"merge", split.MergeCurve, split.MergeSplit, split.MergePlan},
		{"dp", split.DPCurve, split.DPSplit, split.DPPlan},
	} {
		c := BuildCurvesParallel(objs, alg.curve, 1)
		a := LAGreedy(c, 300)
		want := MaterializeParallel(objs, a, alg.splitter, 1)
		for _, workers := range []int{1, 2, runtime.NumCPU(), 0} {
			if got := MaterializeParallel(objs, a, alg.splitter, workers); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s workers=%d: materialized results differ from serial", alg.name, workers)
			}
			planned := PlanCurves(objs, alg.planner, nil, workers)
			if !reflect.DeepEqual(c.curves, planned.curves) {
				t.Fatalf("%s workers=%d: planned curves differ from BuildCurvesParallel's", alg.name, workers)
			}
			got, err := planned.Materialize(a, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s workers=%d: results off the plans differ from the splitter's", alg.name, workers)
			}
		}
	}
}

// TestMaterializeRejectsMismatchedAssignment: an assignment that does not
// cover exactly the planned objects, or asks an object for a budget
// outside its curve, is an error and not a plausible record set.
func TestMaterializeRejectsMismatchedAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	objs := randObjects(rng, 12, 10)
	c := PlanCurves(objs, split.MergePlan, nil, 1)
	good := LAGreedy(c, 18)
	if _, err := c.Materialize(good, 1); err != nil {
		t.Fatal(err)
	}
	with := func(i, s int) Assignment {
		splits := append([]int(nil), good.Splits...)
		splits[i] = s
		return Assignment{Splits: splits}
	}
	for name, a := range map[string]Assignment{
		"short":    {Splits: good.Splits[:len(objs)-1]},
		"long":     {Splits: append(append([]int(nil), good.Splits...), 0)},
		"empty":    {},
		"negative": with(3, -1),
		"past max": with(5, c.MaxSplits(5)+1),
	} {
		if res, err := c.Materialize(a, 1); err == nil {
			t.Errorf("%s assignment materialised %d results, want an error", name, len(res))
		}
	}
	if _, err := BuildCurvesParallel(objs, split.MergeCurve, 0).Materialize(good, 1); err == nil {
		t.Error("curves without plans materialised")
	}
	table, err := NewCurvesFromTable([][]float64{{3, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := table.Materialize(Assignment{Splits: []int{1}}, 1); err == nil {
		t.Error("table-backed curves materialised")
	}
}

// TestOptimalEarlyExit covers the budget==0 / n==0 fast path: it must
// produce the same (validated) assignment the DP would.
func TestOptimalEarlyExit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	objs := randObjects(rng, 20, 10)
	c := PlanCurves(objs, split.MergePlan, nil, 0)

	a := Optimal(c, 0)
	if err := a.Validate(c); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 0 {
		t.Fatalf("budget 0 used %d splits", a.Used())
	}
	want := 0.0
	for i := 0; i < c.NumObjects(); i++ {
		want += c.Volume(i, 0)
	}
	if a.Volume != want {
		t.Fatalf("budget 0 volume %g, want %g", a.Volume, want)
	}

	empty := PlanCurves(nil, split.MergePlan, nil, 0)
	ea := Optimal(empty, 5)
	if err := ea.Validate(empty); err != nil {
		t.Fatal(err)
	}
	if len(ea.Splits) != 0 || ea.Volume != 0 {
		t.Fatalf("empty collection: got %+v", ea)
	}
}
