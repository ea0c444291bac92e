package experiments

import (
	stx "stindex"

	"stindex/internal/alloc"
	"stindex/internal/datagen"
	"stindex/internal/split"
	"stindex/internal/trajectory"
)

// toRecords converts internal split results into the facade's record type
// for indexing.
func toRecords(results []split.Result) []stx.Record {
	var out []stx.Record
	for _, r := range results {
		for _, b := range r.Boxes {
			out = append(out, stx.Record{
				Rect:     stx.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY},
				Interval: stx.Interval{Start: b.Start, End: b.End},
				ObjectID: r.Object.ID,
			})
		}
	}
	return out
}

// assignedRecords reads the records of an assignment computed over curves
// off their plans. A distribution algorithm's own output always fits the
// curves it ran over, so a mismatch is a bug and panics.
func assignedRecords(curves *alloc.Curves, a alloc.Assignment, workers int) []stx.Record {
	results, err := curves.Materialize(a, workers)
	if err != nil {
		panic(err)
	}
	return toRecords(results)
}

// lagreedyRecords splits objs with the paper's recommended pipeline
// (merge plans + LAGreedy distribution) under the given budget, running
// the per-object stages on workers.
func lagreedyRecords(objs []*trajectory.Object, budget, workers int) []stx.Record {
	curves := alloc.PlanCurves(objs, split.MergePlan, nil, workers)
	return assignedRecords(curves, alloc.LAGreedy(curves, budget), workers)
}

// unsplitRecords returns the single-MBR representation.
func unsplitRecords(objs []*trajectory.Object) []stx.Record {
	results := make([]split.Result, len(objs))
	for i, o := range objs {
		results[i] = split.None(o)
	}
	return toRecords(results)
}

// piecewiseRecords splits at motion-change instants (the [21] baseline).
func piecewiseRecords(objs []*trajectory.Object) []stx.Record {
	results := make([]split.Result, len(objs))
	for i, o := range objs {
		results[i] = split.Piecewise(o)
	}
	return toRecords(results)
}

// toQueries converts datagen queries to the facade type.
func toQueries(qs []datagen.Query) []stx.Query {
	out := make([]stx.Query, len(qs))
	for i, q := range qs {
		out[i] = stx.Query{
			Rect:     stx.Rect{MinX: q.Rect.MinX, MinY: q.Rect.MinY, MaxX: q.Rect.MaxX, MaxY: q.Rect.MaxY},
			Interval: stx.Interval{Start: q.Interval.Start, End: q.Interval.End},
		}
	}
	return out
}

// measurePPR builds a PPR-tree over the records and measures the
// workload across the given number of query workers (0 = GOMAXPROCS;
// the averages are bit-identical for every worker count).
func measurePPR(records []stx.Record, qs []stx.Query, workers int) (stx.WorkloadResult, stx.Index, error) {
	idx, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		return stx.WorkloadResult{}, nil, err
	}
	res, err := stx.MeasureWorkloadParallel(idx, qs, workers)
	return res, idx, err
}

// buildPPROnly builds the PPR-tree and returns its page count.
func buildPPROnly(records []stx.Record) (int, error) {
	idx, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		return 0, err
	}
	return idx.Pages(), nil
}

// buildRStarOnly builds the R*-tree and returns its page count.
func buildRStarOnly(records []stx.Record) (int, error) {
	idx, err := stx.BuildRStar(records, stx.RStarOptions{ShuffleSeed: 42})
	if err != nil {
		return 0, err
	}
	return idx.Pages(), nil
}

// measureRStar builds a 3D R*-tree over the records and measures the
// workload across the given number of query workers.
func measureRStar(records []stx.Record, qs []stx.Query, workers int) (stx.WorkloadResult, stx.Index, error) {
	idx, err := stx.BuildRStar(records, stx.RStarOptions{ShuffleSeed: 42})
	if err != nil {
		return stx.WorkloadResult{}, nil, err
	}
	res, err := stx.MeasureWorkloadParallel(idx, qs, workers)
	return res, idx, err
}
