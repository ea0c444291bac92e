package check

import (
	"fmt"

	stx "stindex"
)

// AllKinds lists every index kind the harness covers.
var AllKinds = []string{"ppr", "rstar", "stream"}

// Workload is one seeded differential workload: a generated dataset, the
// offline split records the batch-built kinds index, and a mixed query
// set spanning the paper's snapshot and range profiles, plus kNN and
// trajectory query sets derived deterministically from it.
type Workload struct {
	Seed    int64
	Horizon int64
	Objects []*stx.Object
	Records []stx.Record
	Queries []stx.Query
	// KNNQueries are kNN probes derived from the base queries: the rect
	// center as the query point, the interval start as the instant, k
	// cycling through small values plus one larger-than-the-dataset value
	// (forcing a full ranking).
	KNNQueries []stx.Query
	// TrajQueries reuse each base query's region and interval as a
	// trajectory query, so the record-to-object aggregation is exercised
	// over exactly the shapes the window diff covers.
	TrajQueries []stx.Query
}

// TotalQueries is the number of individual comparisons one full diff
// pass over the workload performs.
func (wl *Workload) TotalQueries() int {
	return len(wl.Queries) + len(wl.KNNQueries) + len(wl.TrajQueries)
}

// GenerateWorkload builds a workload deterministically from its seed:
// same seed, same objects, same records, same queries — a failure report
// carrying the seed is a full reproduction recipe.
func GenerateWorkload(objects int, horizon, seed int64, queries int) (*Workload, error) {
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: objects, Horizon: horizon, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("check: generating dataset (seed %d): %w", seed, err)
	}
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: objects * 3 / 2})
	if err != nil {
		return nil, fmt.Errorf("check: splitting dataset (seed %d): %w", seed, err)
	}
	// A mixed profile: small and large snapshots, short and medium ranges,
	// interleaved so a truncated prefix still covers every shape.
	sets := []stx.QuerySet{stx.QuerySnapshotMixed, stx.QuerySnapshotLarge, stx.QueryRangeSmall, stx.QueryRangeMedium}
	if queries < len(sets) {
		queries = len(sets)
	}
	per := (queries + len(sets) - 1) / len(sets)
	var qs []stx.Query
	for i, set := range sets {
		batch, err := stx.GenerateQueries(set, horizon, seed+int64(i)*101)
		if err != nil {
			return nil, fmt.Errorf("check: generating %s queries (seed %d): %w", set, seed, err)
		}
		if len(batch) > per {
			batch = batch[:per]
		}
		qs = append(qs, batch...)
	}
	if len(qs) > queries {
		qs = qs[:queries]
	}
	wl := &Workload{Seed: seed, Horizon: horizon, Objects: objs, Records: records, Queries: qs}
	ks := []int{1, 3, 10, objects + 7}
	for i, q := range qs {
		cx := (q.Rect.MinX + q.Rect.MaxX) / 2
		cy := (q.Rect.MinY + q.Rect.MaxY) / 2
		wl.KNNQueries = append(wl.KNNQueries, stx.KNNQuery(cx, cy, q.Interval.Start, ks[i%len(ks)]))
		wl.TrajQueries = append(wl.TrajQueries, stx.TrajectoryQuery(q.Rect, q.Interval))
	}
	return wl, nil
}

// BuildKind builds one index kind over the workload in memory. The
// batch kinds index the workload's offline split records; the stream
// kind replays the objects through the online rule observation by
// observation (its piece set — and therefore its reference answers — is
// its own, see StreamIndex.PieceRecords).
func BuildKind(kind string, wl *Workload) (stx.Index, error) {
	switch kind {
	case "ppr":
		return stx.BuildPPR(wl.Records, stx.PPROptions{})
	case "rstar":
		return stx.BuildRStar(wl.Records, stx.RStarOptions{ShuffleSeed: 42})
	case "stream", "stream-ppr":
		return buildStream(wl.Objects)
	}
	return nil, fmt.Errorf("check: unknown index kind %q", kind)
}

// buildStream replays the objects in global time order through the
// online indexer (eager cutting: Lambda 0 exercises the most pieces).
func buildStream(objs []*stx.Object) (*stx.StreamIndex, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("check: no objects to stream")
	}
	start, end := objs[0].Lifetime().Start, objs[0].Lifetime().End
	for _, o := range objs {
		lt := o.Lifetime()
		if lt.Start < start {
			start = lt.Start
		}
		if lt.End > end {
			end = lt.End
		}
	}
	six, err := stx.NewStreamIndex(stx.StreamOptions{}, start)
	if err != nil {
		return nil, err
	}
	for t := start; t <= end; t++ {
		for _, o := range objs {
			lt := o.Lifetime()
			if t == lt.End {
				if err := six.Finish(o.ID(), t); err != nil {
					return nil, fmt.Errorf("check: stream finish object %d at %d: %w", o.ID(), t, err)
				}
			}
			if lt.Start <= t && t < lt.End {
				r, ok := o.At(t)
				if !ok {
					return nil, fmt.Errorf("check: object %d has no position at %d inside its lifetime", o.ID(), t)
				}
				if err := six.Observe(o.ID(), t, r); err != nil {
					return nil, fmt.Errorf("check: stream observe object %d at %d: %w", o.ID(), t, err)
				}
			}
		}
	}
	if six.Live() > 0 {
		if err := six.FinishAll(end + 1); err != nil {
			return nil, err
		}
	}
	return six, nil
}

// Expected bundles the oracle's reference answers for every query
// family of a workload.
type Expected struct {
	Window [][]int64
	KNN    [][]stx.Neighbor
	Traj   [][]stx.TrajectoryHit
}

// Expected precomputes the oracle answer for every query family of the
// workload.
func (o *Oracle) Expected(wl *Workload) *Expected {
	exp := &Expected{
		Window: o.Answers(wl.Queries),
		KNN:    make([][]stx.Neighbor, len(wl.KNNQueries)),
		Traj:   make([][]stx.TrajectoryHit, len(wl.TrajQueries)),
	}
	for i, q := range wl.KNNQueries {
		exp.KNN[i] = o.KNN(q.Rect.MinX, q.Rect.MinY, q.Interval.Start, q.K)
	}
	for i, q := range wl.TrajQueries {
		exp.Traj[i] = o.Trajectory(q.Rect, q.Interval)
	}
	return exp
}
