package stindex

import (
	"sort"
	"testing"
)

func TestFitObjectFacade(t *testing.T) {
	// A raw GPS-style track: drift with jitter.
	raw := make([]Rect, 80)
	for i := range raw {
		x := 0.1 + float64(i)*0.005
		raw[i] = Rect{MinX: x, MinY: 0.4, MaxX: x + 0.01, MaxY: 0.41}
	}
	o, worst, err := FitObject(42, 100, raw, FitOptions{Tolerance: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.002 {
		t.Fatalf("worst deviation %g", worst)
	}
	if o.ID() != 42 || o.Len() != 80 || o.Lifetime().Start != 100 {
		t.Fatalf("fitted object header wrong: %d %d %v", o.ID(), o.Len(), o.Lifetime())
	}
	// The fitted object slots straight into the pipeline.
	records, rep, err := SplitDataset([]*Object{o}, SplitConfig{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 || rep.Gain() <= 0 {
		t.Fatalf("pipeline over fitted object: %d records, gain %.2f", len(records), rep.Gain())
	}
	if _, _, err := FitObject(1, 0, nil, FitOptions{}); err == nil {
		t.Fatal("accepted empty track")
	}
}

func TestRefinedIndexRemovesFalsePositives(t *testing.T) {
	objs := genObjects(t, 400, 51)
	// Unsplit records have maximal dead space, so the raw index
	// over-reports heavily; refinement must cut results down to exact
	// geometry.
	records := UnsplitRecords(objs)
	base, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	refined := Refined(base, objs)

	queries, err := GenerateQueries(QuerySnapshotMixed, 1000, 53)
	if err != nil {
		t.Fatal(err)
	}
	sawFalsePositive := false
	for qi, q := range queries[:120] {
		rawIDs, err := RunQuery(base, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunQuery(refined, q)
		if err != nil {
			t.Fatal(err)
		}
		// Exact ground truth from object geometry.
		var want []int64
		for _, o := range objs {
			lt := o.Lifetime()
			for tm := max64(q.Interval.Start, lt.Start); tm < min64(q.Interval.End, lt.End); tm++ {
				if r, ok := o.At(tm); ok && r.Intersects(q.Rect) {
					want = append(want, o.ID())
					break
				}
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !equalIDs(sortedIDs(got), want) {
			t.Fatalf("query %d: refined %d results, exact %d", qi, len(got), len(want))
		}
		if len(rawIDs) > len(got) {
			sawFalsePositive = true
		}
	}
	if !sawFalsePositive {
		t.Fatal("expected the unsplit index to over-report at least once")
	}
	if refined.Kind() != "ppr+refine" {
		t.Fatalf("Kind = %q", refined.Kind())
	}
	if refined.Records() != base.Records() || refined.Pages() != base.Pages() {
		t.Fatal("refined accessors should delegate")
	}
}

// TestRefinedTrajectoryFiltersBaseHits pins the refined trajectory answer
// to the two answers it is made of: exactly the base index's hits whose
// objects appear in the refined Range over the same window, in the base
// order, each with its MBR-level piece count unchanged.
func TestRefinedTrajectoryFiltersBaseHits(t *testing.T) {
	objs := genObjects(t, 400, 57)
	records, _, err := SplitDataset(objs, SplitConfig{Budget: 600})
	if err != nil {
		t.Fatal(err)
	}
	base, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	refined := Refined(base, objs)
	queries, err := GenerateQueries(QueryRangeMedium, 1000, 59)
	if err != nil {
		t.Fatal(err)
	}
	dropped, multiPiece := false, false
	for qi, q := range queries[:120] {
		hits, err := base.Trajectory(q.Rect, q.Interval)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := refined.Range(q.Rect, q.Interval)
		if err != nil {
			t.Fatal(err)
		}
		inRange := make(map[int64]bool, len(exact))
		for _, id := range exact {
			inRange[id] = true
		}
		var want []TrajectoryHit
		for _, h := range hits {
			if inRange[h.ObjectID] {
				want = append(want, h)
			} else {
				dropped = true
			}
			multiPiece = multiPiece || h.Pieces > 1
		}
		got, err := refined.Trajectory(q.Rect, q.Interval)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: refined trajectory has %d hits, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d: hit %d is %+v, want %+v", qi, i, got[i], want[i])
			}
		}
	}
	if !dropped || !multiPiece {
		t.Fatalf("workload too easy: a hit dropped %v, a hit of several pieces %v", dropped, multiPiece)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
