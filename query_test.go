package stindex

import (
	"errors"
	"math"
	"sort"
	"testing"
)

// queryTestKind is one built index kind plus the record set its answers
// are defined over (the split records for batch kinds, the stream's own
// piece set for the online kind).
type queryTestKind struct {
	name    string
	idx     Index
	records []Record
}

// buildQueryTestKinds builds all four index kinds over one random
// dataset, so the kNN/trajectory properties are asserted against every
// answer path.
func buildQueryTestKinds(t *testing.T, objs []*Object) []queryTestKind {
	t.Helper()
	records, _, err := SplitDataset(objs, SplitConfig{Budget: len(objs) * 3 / 2})
	if err != nil {
		t.Fatalf("SplitDataset: %v", err)
	}
	ppr, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatalf("BuildPPR: %v", err)
	}
	rstar, err := BuildRStar(records, RStarOptions{ShuffleSeed: 42})
	if err != nil {
		t.Fatalf("BuildRStar: %v", err)
	}
	hr, err := BuildHR(records)
	if err != nil {
		t.Fatalf("BuildHR: %v", err)
	}
	six := replayStream(t, objs)
	pieces, err := six.PieceRecords()
	if err != nil {
		t.Fatalf("PieceRecords: %v", err)
	}
	return []queryTestKind{
		{"ppr", ppr, records},
		{"rstar", rstar, records},
		{"hr", hr, records},
		{"stream", six, pieces},
	}
}

// replayStream feeds the objects through the online indexer in global
// time order.
func replayStream(t *testing.T, objs []*Object) *StreamIndex {
	t.Helper()
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
	six, err := NewStreamIndex(StreamOptions{}, start)
	if err != nil {
		t.Fatalf("NewStreamIndex: %v", err)
	}
	for tm := start; tm <= end; tm++ {
		for _, o := range objs {
			lt := o.Lifetime()
			if tm == lt.End {
				if err := six.Finish(o.ID(), tm); err != nil {
					t.Fatalf("Finish(%d, %d): %v", o.ID(), tm, err)
				}
			}
			if lt.Start <= tm && tm < lt.End {
				r, ok := o.At(tm)
				if !ok {
					t.Fatalf("object %d missing position at %d", o.ID(), tm)
				}
				if err := six.Observe(o.ID(), tm, r); err != nil {
					t.Fatalf("Observe(%d, %d): %v", o.ID(), tm, err)
				}
			}
		}
	}
	if six.Live() > 0 {
		if err := six.FinishAll(end + 1); err != nil {
			t.Fatalf("FinishAll: %v", err)
		}
	}
	return six
}

// bruteKNN is the reference kNN: per-object minimum squared MBR
// distance over the records alive at t, ranked ascending
// (Dist2, ObjectID), truncated to k. It uses Rect.MinDist2 — the same
// arithmetic the traversals use — so comparisons are bit-exact.
func bruteKNN(records []Record, x, y float64, t int64, k int) []Neighbor {
	best := make(map[int64]float64)
	for _, r := range records {
		if r.Interval.Start > t || t >= r.Interval.End {
			continue
		}
		d2 := r.Rect.MinDist2(x, y)
		if cur, ok := best[r.ObjectID]; !ok || d2 < cur {
			best[r.ObjectID] = d2
		}
	}
	out := make([]Neighbor, 0, len(best))
	for id, d2 := range best {
		out = append(out, Neighbor{ObjectID: id, Dist2: d2})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist2 != out[j].Dist2 {
			return out[i].Dist2 < out[j].Dist2
		}
		return out[i].ObjectID < out[j].ObjectID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func neighborsEqual(a, b []Neighbor) bool {
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

// TestKNNProperties pins the kNN contract on every kind over randomized
// datasets: answers match the brute-force ranking verbatim, k beyond the
// live population degenerates to the full ranking whose id set equals an
// unbounded snapshot query at the same instant, smaller k is a strict
// prefix of larger k (deterministic tie-breaking), and repeated runs are
// bit-identical.
func TestKNNProperties(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		objs := genObjects(t, 150, seed)
		kinds := buildQueryTestKinds(t, objs)
		everything := Rect{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}
		probes := []struct{ x, y float64 }{
			{0.5, 0.5}, {0.1, 0.9}, {0.0, 0.0}, {1.0, 1.0}, {0.25, 0.75},
		}
		for _, kind := range kinds {
			for ti, at := range []int64{0, 100, 500, 900} {
				p := probes[ti%len(probes)]
				want := bruteKNN(kind.records, p.x, p.y, at, 1<<30)
				full, err := kind.idx.Nearest(p.x, p.y, at, 1<<30)
				if err != nil {
					t.Fatalf("%s seed %d t=%d: Nearest: %v", kind.name, seed, at, err)
				}
				if !neighborsEqual(full, want) {
					t.Fatalf("%s seed %d t=%d: full ranking diverges from brute force:\n got %v\nwant %v",
						kind.name, seed, at, full, want)
				}
				// k beyond the population ranks exactly the objects an
				// unbounded window query at the same instant finds.
				snapIDs, err := kind.idx.Snapshot(everything, at)
				if err != nil {
					t.Fatalf("%s: Snapshot: %v", kind.name, err)
				}
				gotIDs := make([]int64, len(full))
				for i, nb := range full {
					gotIDs[i] = nb.ObjectID
				}
				if !equalIDs(sortedIDs(gotIDs), sortedIDs(append([]int64(nil), snapIDs...))) {
					t.Fatalf("%s seed %d t=%d: kNN(k=inf) ids != snapshot ids", kind.name, seed, at)
				}
				// Prefix property: every smaller k is a verbatim prefix.
				for _, k := range []int{1, 2, 5, 17} {
					got, err := kind.idx.Nearest(p.x, p.y, at, k)
					if err != nil {
						t.Fatalf("%s: Nearest k=%d: %v", kind.name, k, err)
					}
					n := k
					if n > len(full) {
						n = len(full)
					}
					if !neighborsEqual(got, full[:n]) {
						t.Fatalf("%s seed %d t=%d k=%d: not a prefix of the full ranking:\n got %v\nwant %v",
							kind.name, seed, at, k, got, full[:n])
					}
				}
				// Determinism: a second run answers bit-identically.
				again, err := kind.idx.Nearest(p.x, p.y, at, 1<<30)
				if err != nil {
					t.Fatalf("%s: Nearest rerun: %v", kind.name, err)
				}
				if !neighborsEqual(again, full) {
					t.Fatalf("%s seed %d t=%d: rerun diverged", kind.name, seed, at)
				}
			}
		}
	}
}

// TestTrajectoryProperties pins the trajectory contract on every kind:
// hits are sorted ascending by object id with positive piece counts,
// the id set of trajectory(R, [t, t+1)) equals the snapshot answer at t,
// total pieces equal the brute-force matching-record count, and an
// inverted interval answers empty without error.
func TestTrajectoryProperties(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		objs := genObjects(t, 150, seed)
		kinds := buildQueryTestKinds(t, objs)
		regions := []Rect{
			{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6},
			{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
			{MinX: 0.45, MinY: 0.45, MaxX: 0.55, MaxY: 0.55},
		}
		intervals := []Interval{{Start: 0, End: 200}, {Start: 300, End: 301}, {Start: 100, End: 900}}
		for _, kind := range kinds {
			for ri, r := range regions {
				iv := intervals[ri%len(intervals)]
				hits, err := kind.idx.Trajectory(r, iv)
				if err != nil {
					t.Fatalf("%s seed %d: Trajectory: %v", kind.name, seed, err)
				}
				total := 0
				for i, h := range hits {
					if h.Pieces <= 0 {
						t.Fatalf("%s: hit %v has non-positive pieces", kind.name, h)
					}
					if i > 0 && hits[i-1].ObjectID >= h.ObjectID {
						t.Fatalf("%s: hits not strictly ascending by id: %v", kind.name, hits)
					}
					total += h.Pieces
				}
				// Total pieces = matching records, counted brute force.
				wantTotal := 0
				wantIDs := map[int64]bool{}
				for _, rec := range kind.records {
					if rec.Interval.Start < iv.End && iv.Start < rec.Interval.End && rec.Rect.Intersects(r) {
						wantTotal++
						wantIDs[rec.ObjectID] = true
					}
				}
				if total != wantTotal || len(hits) != len(wantIDs) {
					t.Fatalf("%s seed %d region %d: %d hits totalling %d pieces, brute force says %d objects, %d records",
						kind.name, seed, ri, len(hits), total, len(wantIDs), wantTotal)
				}
				// Single-instant trajectory ≡ snapshot, as id sets.
				at := iv.Start
				inst, err := kind.idx.Trajectory(r, Interval{Start: at, End: at + 1})
				if err != nil {
					t.Fatalf("%s: instant Trajectory: %v", kind.name, err)
				}
				snapIDs, err := kind.idx.Snapshot(r, at)
				if err != nil {
					t.Fatalf("%s: Snapshot: %v", kind.name, err)
				}
				instIDs := make([]int64, len(inst))
				for i, h := range inst {
					instIDs[i] = h.ObjectID
				}
				if !equalIDs(instIDs, sortedIDs(append([]int64(nil), snapIDs...))) {
					t.Fatalf("%s seed %d: trajectory[t,t+1) ids %v != snapshot ids %v",
						kind.name, seed, instIDs, sortedIDs(snapIDs))
				}
			}
			// Inverted and empty intervals: empty answer, no error.
			for _, iv := range []Interval{{Start: 50, End: 50}, {Start: 80, End: 20}} {
				hits, err := kind.idx.Trajectory(regions[0], iv)
				if err != nil {
					t.Fatalf("%s: inverted interval errored: %v", kind.name, err)
				}
				if len(hits) != 0 {
					t.Fatalf("%s: inverted interval answered %v", kind.name, hits)
				}
			}
		}
	}
}

// TestKNNValidation pins the ErrBadQuery contract: k < 1 and non-finite
// points are rejected on every kind, wrapped so HTTP can map them to 400.
func TestKNNValidation(t *testing.T) {
	objs := genObjects(t, 40, 9)
	kinds := buildQueryTestKinds(t, objs)
	bad := []struct {
		name string
		x, y float64
		k    int
	}{
		{"k=0", 0.5, 0.5, 0},
		{"k=-3", 0.5, 0.5, -3},
		{"x=NaN", math.NaN(), 0.5, 3},
		{"y=+Inf", 0.5, math.Inf(1), 3},
	}
	for _, kind := range kinds {
		for _, c := range bad {
			if _, err := kind.idx.Nearest(c.x, c.y, 100, c.k); !errors.Is(err, ErrBadQuery) {
				t.Fatalf("%s %s: got %v, want ErrBadQuery", kind.name, c.name, err)
			}
		}
	}
}

// TestQueryViewKNNAgreement proves per-goroutine query views answer the
// new kinds identically to the base index — the contract the parallel
// diff pass and the serving layer rely on.
func TestQueryViewKNNAgreement(t *testing.T) {
	objs := genObjects(t, 120, 11)
	kinds := buildQueryTestKinds(t, objs)
	for _, kind := range kinds {
		view := kind.idx.QueryView()
		for _, at := range []int64{0, 250, 750} {
			want, err := kind.idx.Nearest(0.4, 0.6, at, 9)
			if err != nil {
				t.Fatalf("%s: base Nearest: %v", kind.name, err)
			}
			got, err := view.Nearest(0.4, 0.6, at, 9)
			if err != nil {
				t.Fatalf("%s: view Nearest: %v", kind.name, err)
			}
			if !neighborsEqual(got, want) {
				t.Fatalf("%s t=%d: view kNN %v != base %v", kind.name, at, got, want)
			}
		}
		r := Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.7, MaxY: 0.7}
		iv := Interval{Start: 100, End: 600}
		want, err := kind.idx.Trajectory(r, iv)
		if err != nil {
			t.Fatalf("%s: base Trajectory: %v", kind.name, err)
		}
		got, err := view.Trajectory(r, iv)
		if err != nil {
			t.Fatalf("%s: view Trajectory: %v", kind.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: view trajectory %v != base %v", kind.name, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: view trajectory %v != base %v", kind.name, got, want)
			}
		}
	}
}
