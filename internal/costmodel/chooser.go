package costmodel

import (
	"fmt"
	"math"

	"stindex/internal/alloc"
	"stindex/internal/geom"
	"stindex/internal/parallel"
	"stindex/internal/split"
	"stindex/internal/trajectory"
)

// CandidateCost is the model's verdict for one split budget.
type CandidateCost struct {
	Budget      int
	PredictedIO float64 // expected node accesses per query
	Records     int     // MBR records after splitting
	TotalVolume float64
}

// EvaluateBudgets runs the paper's first method for choosing the number of
// splits: plan every object once (the greedy merge), then for each
// candidate budget distribute it (LAGreedy), read the records off the
// plans, and feed per-instant statistics of the split dataset into the
// analytical model of the partially persistent index. sampleInstants
// controls how many time instants the per-snapshot model is averaged
// over. parallelism is the worker count (0 = GOMAXPROCS, 1 = serial): the
// plans are built on all workers, then the candidate budgets — each an
// independent distribute/materialise/predict run over read-only plans —
// are evaluated concurrently, with every result written to its own slot
// so the table is identical for any worker count.
func EvaluateBudgets(objs []*trajectory.Object, budgets []int, q QueryProfile,
	model TreeModel, sampleInstants, parallelism int) ([]CandidateCost, error) {

	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("costmodel: no objects")
	}
	if sampleInstants < 1 {
		sampleInstants = 16
	}
	minT, maxT := objs[0].Start(), objs[0].End()
	for _, o := range objs {
		if o.Start() < minT {
			minT = o.Start()
		}
		if o.End() > maxT {
			maxT = o.End()
		}
	}

	curves := alloc.PlanCurves(objs, split.MergePlan, nil, parallelism)
	out := make([]CandidateCost, len(budgets))
	errs := make([]error, len(budgets))
	parallel.ForEach(len(budgets), parallelism, func(i int) {
		budget := budgets[i]
		a := alloc.LAGreedy(curves, budget)
		// The budget fan-out already occupies the pool, so each budget
		// materialises serially.
		results, err := curves.Materialize(a, 1)
		if err != nil {
			errs[i] = err
			return
		}
		records := 0
		for _, r := range results {
			records += len(r.Boxes)
		}
		cost, err := avgSnapshotCost(results, q, model, minT, maxT, sampleInstants)
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = CandidateCost{
			Budget:      budget,
			PredictedIO: cost,
			Records:     records,
			TotalVolume: a.Volume,
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// avgSnapshotCost averages the ephemeral 2D model over sampled instants.
func avgSnapshotCost(results []split.Result, q QueryProfile, model TreeModel,
	minT, maxT int64, sampleInstants int) (float64, error) {

	span := maxT - minT
	if span < 1 {
		span = 1
	}
	total, samples := 0.0, 0
	for s := 0; s < sampleInstants; s++ {
		at := minT + span*int64(s)/int64(sampleInstants)
		var alive []geom.Rect
		for _, r := range results {
			for _, b := range r.Boxes {
				if b.ContainsInstant(at) {
					alive = append(alive, b.Rect)
				}
			}
		}
		c, err := model.PredictEphemeral2D(alive, q)
		if err != nil {
			return 0, err
		}
		total += c
		samples++
	}
	return total / float64(samples), nil
}

// ChooseBudget picks the smallest budget whose predicted cost is within
// tolerance (relative, e.g. 0.05) of the best predicted cost — the elbow
// of the cost curve, where the paper's trade-off between query time and
// space overhead flattens out.
func ChooseBudget(costs []CandidateCost, tolerance float64) (CandidateCost, error) {
	if len(costs) == 0 {
		return CandidateCost{}, fmt.Errorf("costmodel: no candidates")
	}
	best := math.Inf(1)
	for _, c := range costs {
		if c.PredictedIO < best {
			best = c.PredictedIO
		}
	}
	chosen := costs[0]
	found := false
	for _, c := range costs {
		if c.PredictedIO <= best*(1+tolerance) {
			if !found || c.Budget < chosen.Budget {
				chosen = c
				found = true
			}
		}
	}
	return chosen, nil
}
