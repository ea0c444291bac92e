package stindex

import (
	"fmt"

	"stindex/internal/alloc"
	"stindex/internal/geom"
	"stindex/internal/split"
)

// Splitter selects the single-object splitting algorithm (paper §III-A).
type Splitter string

// Single-object splitting algorithms.
const (
	// SplitterMerge is the O(n log n) greedy merging heuristic — the
	// recommended default: within a whisker of optimal at a fraction of
	// the cost (paper figures 11-12).
	SplitterMerge Splitter = "merge"
	// SplitterDP is the optimal O(n²k) dynamic program.
	SplitterDP Splitter = "dp"
)

// Distribution selects the split-budget distribution algorithm (§III-B).
type Distribution string

// Budget distribution algorithms.
const (
	// DistributionLAGreedy is the look-ahead-2 greedy — the recommended
	// default: matches the optimal distribution's query performance at
	// greedy cost (paper figures 13-14).
	DistributionLAGreedy Distribution = "lagreedy"
	// DistributionGreedy is the plain one-split-at-a-time greedy.
	DistributionGreedy Distribution = "greedy"
	// DistributionOptimal is the O(N·K²) dynamic program.
	DistributionOptimal Distribution = "optimal"
)

// SplitConfig controls SplitDataset.
type SplitConfig struct {
	// Budget is the total number of artificial splits to distribute over
	// the collection. The paper's sweet spot is 1.5× the object count
	// ("150% splits"); see ChooseBudget for automatic selection.
	Budget int
	// Splitter is the single-object algorithm. Default SplitterMerge.
	Splitter Splitter
	// Distribution is the budget distribution algorithm. Default
	// DistributionLAGreedy.
	Distribution Distribution
	// LookaheadDepth tunes DistributionLAGreedy; 0 means the paper's 2.
	LookaheadDepth int
	// Parallelism is the worker count for the embarrassingly parallel
	// stages — per-object curve construction and record materialization.
	// 0 selects GOMAXPROCS, 1 forces the serial path. Records and report
	// are bit-identical for every setting; only wall clock changes. (The
	// distribution step itself is inherently sequential and always runs
	// on one core.)
	Parallelism int
	// QueryAware switches the splitting objective from the paper's §III
	// total volume to its §IV "ultimate goal": the expected query cost
	// under the given window profile. Records are chosen to minimise
	// Σ (w+qx)(h+qy)·duration instead of Σ w·h·duration — equivalently,
	// volume plus a query-extent-weighted margin term (Pagel's formula at
	// the record level). Tiny extents recover the volume objective; wider
	// extents shift the optimum toward cuts that shrink record perimeter,
	// not just area. With the exact optimisers (SplitterDP +
	// DistributionOptimal) the resulting record set dominates the
	// volume-optimal one under the query objective by construction.
	QueryAware *QueryProfile
}

// SplitReport describes what SplitDataset did.
type SplitReport struct {
	Records      int     // resulting MBR records
	UsedSplits   int     // splits actually consumed
	TotalVolume  float64 // volume after splitting
	UnsplitTotal float64 // volume of the single-MBR representation
}

// Gain returns the fraction of dead space removed, in [0,1].
func (r SplitReport) Gain() float64 {
	if r.UnsplitTotal == 0 {
		return 0
	}
	return 1 - r.TotalVolume/r.UnsplitTotal
}

// planner resolves the configured single-object algorithm and objective.
func (c SplitConfig) planner() (split.Planner, split.Measure, error) {
	var m split.Measure
	if q := c.QueryAware; q != nil {
		if q.ExtentX < 0 || q.ExtentY < 0 {
			return nil, nil, fmt.Errorf("stindex: negative query extents in QueryAware profile")
		}
		m = split.QueryCostMeasure(q.ExtentX, q.ExtentY)
	}
	switch c.Splitter {
	case SplitterMerge, "":
		return split.MergePlan, m, nil
	case SplitterDP:
		return split.DPPlan, m, nil
	default:
		return nil, nil, fmt.Errorf("stindex: unknown splitter %q", c.Splitter)
	}
}

// SplitDataset splits a collection of objects under a global budget and
// returns the resulting MBR records (several per split object, all
// carrying the object's ID) together with a report.
func SplitDataset(objs []*Object, cfg SplitConfig) ([]Record, SplitReport, error) {
	inner := innerObjects(objs)
	planner, m, err := cfg.planner()
	if err != nil {
		return nil, SplitReport{}, err
	}
	return splitPlanned(alloc.PlanCurves(inner, planner, m, cfg.Parallelism), cfg)
}

// splitPlanned distributes cfg.Budget over the planned collection and
// reads the records off the plans: the per-budget half of SplitDataset,
// which a caller trying several budgets repeats over one set of plans.
func splitPlanned(curves *alloc.Curves, cfg SplitConfig) ([]Record, SplitReport, error) {
	var rep SplitReport
	if cfg.Budget < 0 {
		return nil, rep, fmt.Errorf("stindex: negative split budget %d", cfg.Budget)
	}
	var a alloc.Assignment
	switch cfg.Distribution {
	case DistributionLAGreedy, "":
		depth := cfg.LookaheadDepth
		if depth == 0 {
			depth = 2
		}
		a = alloc.LAGreedyDepth(curves, cfg.Budget, depth)
	case DistributionGreedy:
		a = alloc.Greedy(curves, cfg.Budget)
	case DistributionOptimal:
		a = alloc.Optimal(curves, cfg.Budget)
	default:
		return nil, rep, fmt.Errorf("stindex: unknown distribution %q", cfg.Distribution)
	}

	results, err := curves.Materialize(a, cfg.Parallelism)
	if err != nil {
		return nil, rep, err
	}
	records := flattenResults(results)
	for _, r := range results {
		// An object's MBR is the union of its boxes under any splitting —
		// min and max select a coordinate, they never round — so this is
		// o.MBR() bit for bit without a second pass over every instant.
		mbr := r.Boxes[0].Rect
		for _, b := range r.Boxes[1:] {
			mbr = mbr.Union(b.Rect)
		}
		rep.UnsplitTotal += geom.NewBox(mbr, r.Object.Lifetime()).Volume()
	}
	rep.Records = len(records)
	rep.UsedSplits = a.Used()
	rep.TotalVolume = TotalVolume(records)
	return records, rep, nil
}

func flattenResults(results []split.Result) []Record {
	n := 0
	for _, r := range results {
		n += len(r.Boxes)
	}
	records := make([]Record, 0, n)
	for _, r := range results {
		for _, b := range r.Boxes {
			records = append(records, Record{
				Rect:     fromGeomRect(b.Rect),
				Interval: Interval{Start: b.Start, End: b.End},
				ObjectID: r.Object.ID,
			})
		}
	}
	return records
}

// UnsplitRecords returns the single-MBR representation of each object —
// the "no splits" baseline.
func UnsplitRecords(objs []*Object) []Record {
	records := make([]Record, len(objs))
	for i, o := range objs {
		records[i] = o.MBR()
	}
	return records
}

// PiecewiseRecords splits every object at the instants where its motion
// changes characteristics — the piecewise baseline of [21] that the paper
// shows is *worse* than not splitting at all (figures 17-18).
func PiecewiseRecords(objs []*Object) []Record {
	var results []split.Result
	for _, o := range objs {
		results = append(results, split.Piecewise(o.inner))
	}
	return flattenResults(results)
}
