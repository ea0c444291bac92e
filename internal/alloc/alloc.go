// Package alloc implements the paper's split-distribution algorithms
// (§III-B): given a collection of N spatiotemporal objects and a global
// budget of K artificial splits, decide how many splits each object
// receives so that the total volume of all resulting MBRs is minimal.
//
//   - Optimal is the O(N·K·min(K, max lifetime)) dynamic program of
//     §III-B.1 (theorem 2).
//   - Greedy assigns one split at a time to the object with the largest
//     marginal gain (§III-B.2, figure 9).
//   - LAGreedy refines Greedy with a look-ahead step (§III-B.3, figure 10)
//     that rescues objects violating the monotonicity property of Claim 1
//     (those whose first split gains little but whose second gains a lot).
//
// All three operate on per-object volume curves: curve[j] is the total
// volume of object i approximated with j splits (j+1 boxes). PlanCurves
// takes them from one pass of a single-object splitter of package split
// per object (the paper precomputes "the best splits ... in advance for
// all objects") and keeps each pass's plan, so the assignment an
// algorithm returns is materialised without running the splitter again;
// which splitter to use is the caller's choice.
package alloc

import (
	"fmt"

	"stindex/internal/parallel"
	"stindex/internal/split"
	"stindex/internal/trajectory"
)

// Curves holds precomputed volume curves for a collection of objects.
// Curve i has length Len(i) == objs[i].Len() (indices 0..n_i-1), i.e. it is
// computed out to the maximum meaningful budget n_i-1.
type Curves struct {
	objs   []*trajectory.Object
	curves [][]float64
	plans  []split.Plan // curves[i] is plans[i].Curve; nil unless built by PlanCurves
}

// PlanCurves runs the planner once per object (workers: 0 = GOMAXPROCS,
// 1 = serial on the calling goroutine) and keeps the plans behind the
// curves, for Materialize. Planning is independent per object and each
// plan lands in its own slot, so every worker count produces
// bit-identical Curves.
func PlanCurves(objs []*trajectory.Object, planner split.Planner, m split.Measure, workers int) *Curves {
	cs := &Curves{objs: objs, curves: make([][]float64, len(objs)), plans: make([]split.Plan, len(objs))}
	parallel.ForEach(len(objs), workers, func(i int) {
		cs.plans[i] = planner(objs[i], m)
		cs.curves[i] = cs.plans[i].Curve
	})
	return cs
}

// Materialize applies an assignment to the planned collection: object i
// is split a.Splits[i] times, read off its plan, producing the MBR
// records the index structures ingest. The assignment must cover exactly
// the planned objects with budgets inside each curve. Result i depends
// only on plan i and a.Splits[i], so every worker count produces
// identical output in identical order.
func (c *Curves) Materialize(a Assignment, workers int) ([]split.Result, error) {
	if c.plans == nil {
		return nil, fmt.Errorf("alloc: these curves were not built by PlanCurves and cannot materialise")
	}
	if err := a.checkSplits(c); err != nil {
		return nil, err
	}
	out := make([]split.Result, len(c.objs))
	parallel.ForEach(len(c.objs), workers, func(i int) {
		out[i] = c.plans[i].Result(c.objs[i], a.Splits[i])
	})
	return out, nil
}

// CurveFunc computes an object's volume curve up to maxSplits. curve[j]
// must be the total volume with j splits, non-increasing in j, with
// len(curve) == maxSplits+1. split.DPCurve and split.MergeCurve qualify.
// BuildCurvesParallel invokes it from multiple goroutines, so it must
// be safe for concurrent calls (all splitters in package split are).
type CurveFunc func(o *trajectory.Object, maxSplits int) []float64

// Splitter turns one object and a split count into a concrete splitting.
// split.DPSplit and split.MergeSplit qualify; the same concurrency rule
// applies.
type Splitter func(o *trajectory.Object, k int) split.Result

// BuildCurvesParallel and MaterializeParallel are the pipeline as a
// (curve function, splitter) pair run separately — the splitter starts
// over for the budget the curve pass already covered. The benchmark's
// traced run times the two stages through them, and tests use them as
// the reference PlanCurves and Materialize are compared against. Curves
// built this way carry no plans.
func BuildCurvesParallel(objs []*trajectory.Object, fn CurveFunc, workers int) *Curves {
	cs := &Curves{objs: objs, curves: make([][]float64, len(objs))}
	parallel.ForEach(len(objs), workers, func(i int) {
		cs.curves[i] = fn(objs[i], objs[i].Len()-1)
	})
	return cs
}

// MaterializeParallel splits object i a.Splits[i] times with the given
// splitter; a must cover every object (it is indexed, not checked — the
// plan path's Materialize is the one that reports a mismatch).
func MaterializeParallel(objs []*trajectory.Object, a Assignment, splitter Splitter, workers int) []split.Result {
	out := make([]split.Result, len(objs))
	parallel.ForEach(len(objs), workers, func(i int) {
		out[i] = splitter(objs[i], a.Splits[i])
	})
	return out
}

// NumObjects returns the number of objects in the collection. (Counted
// from the curves, so table-backed collections — NewCurvesFromTable —
// work the same; PlanCurves always produces one curve per object.)
func (c *Curves) NumObjects() int { return len(c.curves) }

// MaxSplits returns the largest meaningful budget for object i.
func (c *Curves) MaxSplits(i int) int { return len(c.curves[i]) - 1 }

// Volume returns the total volume of object i with j splits; budgets beyond
// the object's maximum are clamped.
func (c *Curves) Volume(i, j int) float64 {
	if m := c.MaxSplits(i); j > m {
		j = m
	}
	if j < 0 {
		j = 0
	}
	return c.curves[i][j]
}

// Gain returns the volume reduction of giving object i its (j+1)-th split
// when it currently has j. Zero once the object's curve is exhausted.
func (c *Curves) Gain(i, j int) float64 {
	return c.Volume(i, j) - c.Volume(i, j+1)
}

// TotalBudget returns the sum of maximum meaningful budgets — the number of
// splits beyond which no algorithm can improve anything.
func (c *Curves) TotalBudget() int {
	t := 0
	for i := range c.curves {
		t += c.MaxSplits(i)
	}
	return t
}

// Assignment is the outcome of a distribution algorithm.
type Assignment struct {
	// Splits[i] is the number of splits allocated to object i.
	Splits []int
	// Volume is the total volume of the collection under this assignment.
	Volume float64
}

// Used returns the number of splits the assignment actually consumed.
func (a Assignment) Used() int {
	t := 0
	for _, s := range a.Splits {
		t += s
	}
	return t
}

// Validate checks that an assignment is structurally consistent with the
// curves: non-negative per-object splits within each object's maximum, and
// Volume equal to the sum of per-object curve values.
func (a Assignment) Validate(c *Curves) error {
	if err := a.checkSplits(c); err != nil {
		return err
	}
	total := volumeOf(c, a.Splits)
	if diff := total - a.Volume; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("alloc: recorded volume %g differs from recomputed %g", a.Volume, total)
	}
	return nil
}

// checkSplits is the part of Validate that materialising depends on: one
// split count per object, each inside the object's curve.
func (a Assignment) checkSplits(c *Curves) error {
	if len(a.Splits) != c.NumObjects() {
		return fmt.Errorf("alloc: assignment covers %d objects, want %d", len(a.Splits), c.NumObjects())
	}
	for i, s := range a.Splits {
		if s < 0 {
			return fmt.Errorf("alloc: object %d has negative splits %d", i, s)
		}
		if s > c.MaxSplits(i) {
			return fmt.Errorf("alloc: object %d has %d splits, max is %d", i, s, c.MaxSplits(i))
		}
	}
	return nil
}

// volumeOf recomputes the total volume for a split vector.
func volumeOf(c *Curves, splits []int) float64 {
	total := 0.0
	for i, s := range splits {
		total += c.Volume(i, s)
	}
	return total
}
