package stindex

import (
	"math"
	"sort"
	"testing"
)

func genObjects(t *testing.T, n int, seed int64) []*Object {
	t.Helper()
	objs, err := GenerateRandom(RandomDatasetConfig{N: n, Seed: seed})
	if err != nil {
		t.Fatalf("GenerateRandom: %v", err)
	}
	return objs
}

// bruteQuery answers a query by scanning the record set — the indexes'
// exact contract: an object matches when one of its MBR records overlaps
// the query window in space and time. (Like the paper's, the indexes
// return the MBR-approximation answer; the records are the indexed
// entities.)
func bruteQuery(records []Record, q Query) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, r := range records {
		if r.Interval.Start < q.Interval.End && q.Interval.Start < r.Interval.End &&
			r.Rect.Intersects(q.Rect) && !seen[r.ObjectID] {
			seen[r.ObjectID] = true
			out = append(out, r.ObjectID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedIDs(ids []int64) []int64 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPipelineEndToEnd(t *testing.T) {
	objs := genObjects(t, 600, 1)
	records, rep, err := SplitDataset(objs, SplitConfig{Budget: 900})
	if err != nil {
		t.Fatalf("SplitDataset: %v", err)
	}
	if rep.Records != len(records) {
		t.Fatalf("report says %d records, got %d", rep.Records, len(records))
	}
	if rep.UsedSplits > 900 {
		t.Fatalf("used %d splits of 900", rep.UsedSplits)
	}
	if rep.Records != len(objs)+rep.UsedSplits {
		t.Fatalf("records %d != objects %d + splits %d", rep.Records, len(objs), rep.UsedSplits)
	}
	if rep.Gain() <= 0 || rep.Gain() >= 1 {
		t.Fatalf("gain %.3f out of (0,1)", rep.Gain())
	}

	ppr, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatalf("BuildPPR: %v", err)
	}
	rst, err := BuildRStar(records, RStarOptions{})
	if err != nil {
		t.Fatalf("BuildRStar: %v", err)
	}

	horizon, err := Horizon(objs)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []QuerySet{QuerySnapshotMixed, QueryRangeSmall} {
		queries, err := GenerateQueries(set, horizon.End, 7)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries[:60] {
			want := bruteQuery(records, q)
			gotP, err := RunQuery(ppr, q)
			if err != nil {
				t.Fatalf("%s query %d on ppr: %v", set, qi, err)
			}
			gotR, err := RunQuery(rst, q)
			if err != nil {
				t.Fatalf("%s query %d on rstar: %v", set, qi, err)
			}
			if !equalIDs(sortedIDs(gotP), want) {
				t.Fatalf("%s query %d: ppr returned %d objects, brute force %d", set, qi, len(gotP), len(want))
			}
			if !equalIDs(sortedIDs(gotR), want) {
				t.Fatalf("%s query %d: rstar returned %d objects, brute force %d", set, qi, len(gotR), len(want))
			}
		}
	}
}

func TestSplitConfigVariants(t *testing.T) {
	objs := genObjects(t, 80, 2)
	variants := []SplitConfig{
		{Budget: 0},
		{Budget: 120, Splitter: SplitterDP, Distribution: DistributionOptimal},
		{Budget: 120, Splitter: SplitterMerge, Distribution: DistributionGreedy},
		{Budget: 120, Splitter: SplitterMerge, Distribution: DistributionLAGreedy, LookaheadDepth: 3},
	}
	// The report's unsplit volume is read off each splitting's boxes; it
	// must be the sum of the objects' own MBR volumes in object order,
	// to the bit, whatever the splitting.
	unsplit := 0.0
	for _, o := range objs {
		unsplit += o.inner.MBR().Volume()
	}
	variants = append(variants, SplitConfig{Budget: 120, QueryAware: &QueryProfile{ExtentX: 0.05, ExtentY: 0.05, Duration: 1}})
	var volumes []float64
	for i, cfg := range variants {
		records, rep, err := SplitDataset(objs, cfg)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if len(records) == 0 {
			t.Fatalf("variant %d produced no records", i)
		}
		if math.Float64bits(rep.UnsplitTotal) != math.Float64bits(unsplit) {
			t.Fatalf("variant %d: UnsplitTotal %v, the objects' MBRs sum to %v", i, rep.UnsplitTotal, unsplit)
		}
		volumes = append(volumes, rep.TotalVolume)
	}
	// No splits must be the largest volume; the optimal 120-split variant
	// must not lose to the greedy ones.
	if volumes[0] < volumes[1] || volumes[0] < volumes[2] || volumes[0] < volumes[3] {
		t.Fatalf("unsplit volume %g should dominate split volumes %v", volumes[0], volumes[1:])
	}
	if volumes[1] > volumes[2]+1e-9 {
		t.Fatalf("optimal distribution %g worse than greedy %g", volumes[1], volumes[2])
	}

	if _, _, err := SplitDataset(objs, SplitConfig{Budget: -1}); err == nil {
		t.Fatal("accepted negative budget")
	}
	if _, _, err := SplitDataset(objs, SplitConfig{Splitter: "nonsense"}); err == nil {
		t.Fatal("accepted unknown splitter")
	}
	if _, _, err := SplitDataset(objs, SplitConfig{Distribution: "nonsense"}); err == nil {
		t.Fatal("accepted unknown distribution")
	}
}

func TestQueryAwareSplitConfig(t *testing.T) {
	objs := genObjects(t, 120, 81)
	budget := 180
	profile := &QueryProfile{ExtentX: 0.05, ExtentY: 0.05, Duration: 1}
	// The dominance guarantee ("optimising the query objective cannot
	// lose on the query objective") holds for the exact optimisers; the
	// heuristics can differ by noise either way.
	exact := SplitConfig{Budget: budget, Splitter: SplitterDP, Distribution: DistributionOptimal}
	exactAware := exact
	exactAware.QueryAware = profile

	volRecords, _, err := SplitDataset(objs, exact)
	if err != nil {
		t.Fatal(err)
	}
	costRecords, costRep, err := SplitDataset(objs, exactAware)
	if err != nil {
		t.Fatal(err)
	}
	if costRep.Records != len(costRecords) {
		t.Fatalf("report mismatch")
	}
	// Evaluate both record sets under the §IV objective: the cost-aware
	// split must not lose on its own objective.
	weighted := func(records []Record) float64 {
		total := 0.0
		for _, r := range records {
			w := r.Rect.MaxX - r.Rect.MinX + profile.ExtentX
			h := r.Rect.MaxY - r.Rect.MinY + profile.ExtentY
			total += w * h * float64(r.Interval.End-r.Interval.Start)
		}
		return total
	}
	cw, vw := weighted(costRecords), weighted(volRecords)
	if cw > vw*1.0001 {
		t.Fatalf("query-aware split %g worse than volume split %g under the query objective", cw, vw)
	}
	// Queries still answer correctly.
	idx, err := BuildPPR(costRecords, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := GenerateQueries(QuerySnapshotMixed, 1000, 83)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries[:40] {
		want := bruteQuery(costRecords, q)
		got, err := RunQuery(idx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(got), want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
	}
	// DP variant and validation of bad profiles.
	if _, _, err := SplitDataset(objs[:50], SplitConfig{Budget: 50, Splitter: SplitterDP, QueryAware: profile}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := SplitDataset(objs, SplitConfig{QueryAware: &QueryProfile{ExtentX: -1}}); err == nil {
		t.Fatal("accepted negative query extents")
	}
}

func TestBaselineRecordSets(t *testing.T) {
	objs := genObjects(t, 100, 3)
	unsplit := UnsplitRecords(objs)
	if len(unsplit) != 100 {
		t.Fatalf("UnsplitRecords: %d records", len(unsplit))
	}
	piecewise := PiecewiseRecords(objs)
	if len(piecewise) <= len(unsplit) {
		t.Fatalf("PiecewiseRecords should exceed object count, got %d", len(piecewise))
	}
	if TotalVolume(piecewise) > TotalVolume(unsplit) {
		t.Fatalf("piecewise volume %g exceeds unsplit %g", TotalVolume(piecewise), TotalVolume(unsplit))
	}
}

func TestMeasureWorkload(t *testing.T) {
	objs := genObjects(t, 300, 4)
	records, _, err := SplitDataset(objs, SplitConfig{Budget: 450})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := GenerateQueries(QuerySnapshotSmall, 1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureWorkload(idx, queries[:100])
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 100 || res.AvgIO <= 0 {
		t.Fatalf("workload result %+v implausible", res)
	}
}

func TestChooseBudgetAnalytic(t *testing.T) {
	objs := genObjects(t, 200, 5)
	chosen, table, err := ChooseBudget(objs, ChooseBudgetConfig{})
	if err != nil {
		t.Fatalf("ChooseBudget: %v", err)
	}
	if len(table) == 0 {
		t.Fatal("no candidates evaluated")
	}
	// Predicted cost must improve (weakly) from 0 splits to the chosen
	// budget, and the chosen budget must be one of the candidates.
	found := false
	for _, c := range table {
		if c.Budget == chosen.Budget {
			found = true
		}
	}
	if !found {
		t.Fatalf("chosen budget %d not among candidates", chosen.Budget)
	}
	if chosen.PredictedIO > table[0].PredictedIO {
		t.Fatalf("chosen budget predicts %g I/O, worse than no splits %g",
			chosen.PredictedIO, table[0].PredictedIO)
	}
}

func TestChooseBudgetBySampling(t *testing.T) {
	objs := genObjects(t, 300, 6)
	queries, err := GenerateQueries(QuerySnapshotSmall, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChooseBudgetConfig{Budgets: []int{0, 150, 300, 450}}
	chosen, table, err := ChooseBudgetBySampling(objs, queries[:50], cfg, 0.3, 1)
	if err != nil {
		t.Fatalf("ChooseBudgetBySampling: %v", err)
	}
	if len(table) != 4 {
		t.Fatalf("expected 4 candidates, got %d", len(table))
	}
	if chosen.PredictedIO > table[0].PredictedIO {
		t.Fatalf("sampling chose budget %d with %g I/O, worse than no splits %g",
			chosen.Budget, chosen.PredictedIO, table[0].PredictedIO)
	}
}

func TestIndexAccounting(t *testing.T) {
	objs := genObjects(t, 200, 7)
	records, _, err := SplitDataset(objs, SplitConfig{Budget: 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() (Index, error){
		func() (Index, error) { return BuildPPR(records, PPROptions{}) },
		func() (Index, error) { return BuildRStar(records, RStarOptions{}) },
	} {
		idx, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if idx.Records() != len(records) {
			t.Fatalf("%s: Records() = %d, want %d", idx.Kind(), idx.Records(), len(records))
		}
		if idx.Pages() <= 0 || idx.Bytes() <= 0 {
			t.Fatalf("%s: empty footprint", idx.Kind())
		}
		idx.ResetBuffer()
		if _, err := idx.Snapshot(Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.4, MaxY: 0.4}, 500); err != nil {
			t.Fatal(err)
		}
		st := idx.IOStats()
		if st.Reads == 0 || st.Writes != 0 {
			t.Fatalf("%s: query stats %+v implausible", idx.Kind(), st)
		}
	}
}

func TestPPRIndexAppend(t *testing.T) {
	// Two temporally disjoint batches: day one and day two of the
	// evolution (append requires history to stay closed).
	dayOne := genObjects(t, 200, 71)
	dayTwoRaw := genObjects(t, 200, 72)
	dayTwo := make([]*Object, len(dayTwoRaw))
	for i, o := range dayTwoRaw {
		lt := o.Lifetime()
		rects := make([]Rect, o.Len())
		for j := range rects {
			r, _ := o.At(lt.Start + int64(j))
			rects[j] = r
		}
		shifted, err := NewObject(o.ID()+1000, lt.Start+1000, rects)
		if err != nil {
			t.Fatal(err)
		}
		dayTwo[i] = shifted
	}
	first, _, err := SplitDataset(dayOne, SplitConfig{Budget: 300})
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := SplitDataset(dayTwo, SplitConfig{Budget: 300})
	if err != nil {
		t.Fatal(err)
	}
	records := append(append([]Record{}, first...), second...)

	idx, err := BuildPPR(first, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Append(second); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if idx.Records() != len(records) {
		t.Fatalf("Records = %d, want %d", idx.Records(), len(records))
	}
	if _, err := idx.Tree().Validate(); err != nil {
		t.Fatalf("invalid after append: %v", err)
	}
	whole, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := GenerateQueries(QuerySnapshotMixed, 2000, 73)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries[:60] {
		a, err := RunQuery(idx, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunQuery(whole, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(a), sortedIDs(b)) {
			t.Fatalf("query %d: appended index %d results, monolithic %d", qi, len(a), len(b))
		}
	}
	// Appending into the past must fail.
	if err := idx.Append(first[:1]); err == nil {
		t.Fatal("accepted records that start before the current time")
	}
}

func TestPackedRStarMatchesInserted(t *testing.T) {
	objs := genObjects(t, 400, 8)
	records, _, err := SplitDataset(objs, SplitConfig{Budget: 600})
	if err != nil {
		t.Fatal(err)
	}
	inserted, err := BuildRStar(records, RStarOptions{ShuffleSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := BuildRStarPacked(records, RStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := packed.Tree().Validate(); err != nil {
		t.Fatalf("packed tree invalid: %v", err)
	}
	if packed.Records() != len(records) {
		t.Fatalf("packed Records = %d", packed.Records())
	}
	// Packing must not change answers, only layout.
	queries, err := GenerateQueries(QuerySnapshotMixed, 1000, 17)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries[:60] {
		a, err := RunQuery(inserted, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunQuery(packed, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(a), sortedIDs(b)) {
			t.Fatalf("query %d: inserted %d results, packed %d", qi, len(a), len(b))
		}
	}
	// Packing balances chunks between 50% and 100% fill, so the footprint
	// stays in the same ballpark as insertion-built trees.
	if packed.Pages() > inserted.Pages()*13/10 {
		t.Fatalf("packed tree uses %d pages, insertion-built %d", packed.Pages(), inserted.Pages())
	}
	if _, err := BuildRStarPacked(nil, RStarOptions{}); err == nil {
		t.Fatal("accepted empty records")
	}
}

func TestBuildRejectsEmptyRecords(t *testing.T) {
	if _, err := BuildPPR(nil, PPROptions{}); err == nil {
		t.Fatal("BuildPPR accepted empty records")
	}
	if _, err := BuildRStar(nil, RStarOptions{}); err == nil {
		t.Fatal("BuildRStar accepted empty records")
	}
}

func TestNewObjectFromSegments(t *testing.T) {
	o, err := NewObjectFromSegments(9, []Segment{
		{Start: 0, End: 10, X: []float64{0.1, 0.01}, Y: []float64{0.5}, HalfW: []float64{0.01}, HalfH: []float64{0.01}},
		{Start: 10, End: 20, X: []float64{0.2}, Y: []float64{0.5, 0.005}, HalfW: []float64{0.01}, HalfH: []float64{0.01}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Len() != 20 || o.ID() != 9 {
		t.Fatalf("object %d has %d instants", o.ID(), o.Len())
	}
	r, ok := o.At(0)
	if !ok || r.MinX < 0.09-1e-12 || r.MinX > 0.09+1e-12 {
		t.Fatalf("At(0) = %v, %v", r, ok)
	}
	if _, ok := o.At(25); ok {
		t.Fatal("At outside lifetime should report !ok")
	}
	if _, err := NewObjectFromSegments(9, []Segment{
		{Start: 0, End: 10}, {Start: 12, End: 20},
	}); err == nil {
		t.Fatal("accepted gapped segments")
	}
}
