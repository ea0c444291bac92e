package stindex

import (
	"stindex/internal/datagen"
	"stindex/internal/parallel"
	"stindex/internal/trajectory"
)

// RandomDatasetConfig configures GenerateRandom — the paper's uniform
// moving-rectangles datasets, with the paper's parameters: horizon 1000
// when zero, lifetimes 1-100, 1-10 polynomial segments of degree ≤ 2,
// rectangle extents 0.1%-1% of the space, a quarter of the objects
// changing their extent over time.
type RandomDatasetConfig struct {
	N       int
	Horizon int64
	Seed    int64
}

// GenerateRandom creates a uniform moving-rectangles dataset.
func GenerateRandom(cfg RandomDatasetConfig) ([]*Object, error) {
	objs, err := datagen.Random(datagen.RandomConfig{N: cfg.N, Horizon: cfg.Horizon, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return wrapObjects(objs), nil
}

// RailwayDatasetConfig configures GenerateRailway — the paper's skewed
// datasets of trains on a 22-city, 51-track map approximating California
// and New York, with the paper's parameters: horizon 1000 when zero, up
// to 10 stops, up to 36 hours of travel at 60-75 mph.
type RailwayDatasetConfig struct {
	N       int
	Horizon int64
	Seed    int64
}

// GenerateRailway creates a skewed railway dataset.
func GenerateRailway(cfg RailwayDatasetConfig) ([]*Object, error) {
	objs, err := datagen.Railway(datagen.RailwayConfig{N: cfg.N, Horizon: cfg.Horizon, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return wrapObjects(objs), nil
}

func wrapObjects(objs []*trajectory.Object) []*Object {
	out := make([]*Object, len(objs))
	for i, o := range objs {
		out[i] = &Object{inner: o}
	}
	return out
}

// Query is one query against an index. The zero Kind is the paper's
// window query: the objects intersecting Rect at some instant of
// Interval. KindKNN asks for the K objects nearest to the point
// (Rect.MinX, Rect.MinY) at the instant Interval.Start; KindTrajectory
// asks for the objects whose path crossed Rect at some instant of
// Interval together with how many of their split pieces matched. Use
// the KNNQuery / TrajectoryQuery constructors for the new kinds.
type Query struct {
	Rect     Rect
	Interval Interval
	Kind     QueryKind
	K        int
}

// IsSnapshot reports whether the query covers a single instant.
func (q Query) IsSnapshot() bool { return q.Interval.End == q.Interval.Start+1 }

// QuerySet names one of the paper's standard query workloads (Table II).
type QuerySet string

// The standard query sets of Table II: four snapshot sets of increasing
// extent and two range sets of increasing duration, 1000 queries each.
const (
	QuerySnapshotTiny  = QuerySet(datagen.SnapshotTiny)
	QuerySnapshotSmall = QuerySet(datagen.SnapshotSmall)
	QuerySnapshotMixed = QuerySet(datagen.SnapshotMixed)
	QuerySnapshotLarge = QuerySet(datagen.SnapshotLarge)
	QueryRangeSmall    = QuerySet(datagen.RangeSmall)
	QueryRangeMedium   = QuerySet(datagen.RangeMedium)
)

// GenerateQueries creates one of the paper's standard query sets over the
// given horizon.
func GenerateQueries(set QuerySet, horizon, seed int64) ([]Query, error) {
	qs, err := datagen.StandardQueries(datagen.QuerySetName(set), horizon, seed)
	if err != nil {
		return nil, err
	}
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = Query{
			Rect:     fromGeomRect(q.Rect),
			Interval: Interval{Start: q.Interval.Start, End: q.Interval.End},
		}
	}
	return out, nil
}

// RunQuery executes one query on an index and returns the matching
// object IDs. For kNN queries the IDs come back in ascending
// (distance, id) order; use RunQueryResult to also get distances or
// per-object piece counts.
func RunQuery(idx Index, q Query) ([]int64, error) {
	res, err := RunQueryResult(idx, q)
	return res.IDs, err
}

// WorkloadResult aggregates a query workload's cost.
type WorkloadResult struct {
	Queries   int
	AvgIO     float64 // average disk accesses per query, cold 10-page buffer
	AvgResult float64 // average result cardinality
}

// MeasureWorkload runs every query with the paper's discipline — the
// buffer pool is reset before each query — and reports the average number
// of disk accesses.
func MeasureWorkload(idx Index, queries []Query) (WorkloadResult, error) {
	return MeasureWorkloadParallel(idx, queries, 1)
}

// MeasureWorkloadParallel is MeasureWorkload across the given number of
// workers (resolved via the Parallelism convention: <= 0 means
// GOMAXPROCS, clamped to the query count). One worker queries idx
// itself; more each query their own read-only view of the index — a
// private buffer pool and decode cache over the shared, frozen page file
// — so the cold-buffer discipline holds per query exactly as in the
// serial loop. Query i writes its (I/O,
// result-count) pair into slot i, so the aggregate is bit-identical for
// every worker count, including 1; parallelism changes wall clock, never
// the reported numbers.
func MeasureWorkloadParallel(idx Index, queries []Query, workers int) (WorkloadResult, error) {
	workers = parallel.Workers(workers, len(queries))
	views := []Index{idx}
	if workers > 1 {
		views = make([]Index, workers)
		for w := range views {
			views[w] = idx.QueryView()
		}
	}
	ios := make([]int64, len(queries))
	counts := make([]int, len(queries))
	errs := make([]error, len(queries))
	parallel.ForEachWorker(len(queries), workers, func(w, i int) {
		view := views[w]
		view.ResetBuffer()
		ids, err := RunQuery(view, queries[i])
		if err != nil {
			errs[i] = err
			return
		}
		ios[i] = view.IOStats().IO()
		counts[i] = len(ids)
	})
	var res WorkloadResult
	totalIO, totalResults := int64(0), 0
	for i := range queries {
		if errs[i] != nil {
			return res, errs[i]
		}
		totalIO += ios[i]
		totalResults += counts[i]
	}
	res.Queries = len(queries)
	if len(queries) > 0 {
		res.AvgIO = float64(totalIO) / float64(len(queries))
		res.AvgResult = float64(totalResults) / float64(len(queries))
	}
	return res, nil
}
