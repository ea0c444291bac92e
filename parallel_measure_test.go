package stindex

import (
	"runtime"
	"testing"
)

// goldenWorkload builds the fixed dataset and indexes used to pin the
// workload I/O goldens: 1500 uniform objects split under a 1.5x budget,
// indexed three ways.
func goldenWorkload(t *testing.T) (ppr, rst, hr Index) {
	t.Helper()
	objs, err := GenerateRandom(RandomDatasetConfig{N: 1500, Horizon: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := SplitDataset(objs, SplitConfig{Budget: 2250})
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := BuildRStar(records, RStarOptions{ShuffleSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildHR(records)
	if err != nil {
		t.Fatal(err)
	}
	return p, r, h
}

func goldenQueries(t *testing.T, set QuerySet) []Query {
	t.Helper()
	qs, err := GenerateQueries(set, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	return qs[:200]
}

// goldenKindQueries derives the kNN and trajectory goldens' queries from
// the pinned window sets: the 10 nearest neighbours of each snapshot
// query's corner at its instant, and each small range query asked as a
// trajectory query.
func goldenKindQueries(t *testing.T, kind QueryKind) []Query {
	t.Helper()
	if kind == KindKNN {
		qs := goldenQueries(t, QuerySnapshotMixed)
		for i, q := range qs {
			qs[i] = KNNQuery(q.Rect.MinX, q.Rect.MinY, q.Interval.Start, 10)
		}
		return qs
	}
	qs := goldenQueries(t, QueryRangeSmall)
	for i, q := range qs {
		qs[i] = TrajectoryQuery(q.Rect, q.Interval)
	}
	return qs
}

// TestWorkloadGoldenIO pins the exact AvgIO of the measurement pipeline on
// a fixed dataset. These values are a deterministic function of the tree
// layouts and the 10-page LRU policy; the decoded-node cache and the
// iterative traversals must not move them by even one disk access — any
// drift here means the paper's metric changed. The kNN rows also pin the
// best-first queue's pop order among equal-distance frames, which decides
// which pages a cut-off search reads.
func TestWorkloadGoldenIO(t *testing.T) {
	ppr, rst, hr := goldenWorkload(t)
	queries := map[string][]Query{
		"snapshot-mixed": goldenQueries(t, QuerySnapshotMixed),
		"range-small":    goldenQueries(t, QueryRangeSmall),
		"knn":            goldenKindQueries(t, KindKNN),
		"trajectory":     goldenKindQueries(t, KindTrajectory),
	}
	golden := []struct {
		set       string
		idx       Index
		avgIO     float64
		avgResult float64
	}{
		{"snapshot-mixed", ppr, 3.445, 14.87},
		{"snapshot-mixed", rst, 10.44, 14.87},
		{"snapshot-mixed", hr, 2.855, 14.87},
		{"range-small", ppr, 3.975, 15.425},
		{"range-small", rst, 10.205, 15.425},
		{"range-small", hr, 14.43, 15.425},
		{"knn", ppr, 3.515, 9.965},
		{"knn", rst, 10.78, 9.965},
		{"knn", hr, 2.92, 9.965},
		{"trajectory", ppr, 3.975, 15.425},
		{"trajectory", rst, 10.205, 15.425},
		{"trajectory", hr, 14.43, 15.425},
	}
	for _, g := range golden {
		res, err := MeasureWorkload(g.idx, queries[g.set])
		if err != nil {
			t.Fatal(err)
		}
		if res.AvgIO != g.avgIO || res.AvgResult != g.avgResult {
			t.Errorf("set=%s kind=%s: AvgIO=%v AvgResult=%v, want %v / %v",
				g.set, g.idx.Kind(), res.AvgIO, res.AvgResult, g.avgIO, g.avgResult)
		}
	}
}

// TestMeasureWorkloadParallelBitIdentical asserts the tentpole guarantee:
// for every worker count, MeasureWorkloadParallel returns exactly the
// serial result — same AvgIO, same AvgResult, same query count.
func TestMeasureWorkloadParallelBitIdentical(t *testing.T) {
	ppr, rst, hr := goldenWorkload(t)
	workerCounts := []int{1, 2, runtime.NumCPU()}
	for _, set := range []QuerySet{QuerySnapshotMixed, QueryRangeSmall} {
		qs := goldenQueries(t, set)
		for _, idx := range []Index{ppr, rst, hr} {
			want, err := MeasureWorkload(idx, qs)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				got, err := MeasureWorkloadParallel(idx, qs, w)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("set=%s kind=%s workers=%d: %+v, want %+v", set, idx.Kind(), w, got, want)
				}
			}
		}
	}
}
