package check

import (
	"sort"

	stx "stindex"
)

// Oracle answers queries by brute-force linear scan over a record set —
// the ground truth every index kind must reproduce exactly. The match
// predicate is the indexes' own: closed-rectangle intersection (touching
// boundaries intersect) and half-open interval overlap, de-duplicated to
// object granularity. Results are returned sorted, the canonical form
// for set comparison (index traversal order is kind-specific and
// meaningless).
type Oracle struct {
	records []stx.Record
}

// NewOracle builds an oracle over the records an index was built from
// (or, for the stream kind, the pieces it actually created — see
// StreamIndex.PieceRecords).
func NewOracle(records []stx.Record) *Oracle {
	return &Oracle{records: records}
}

// rectIntersects mirrors geom.Rect.Intersects on the facade type:
// closed-boundary intersection of valid rectangles.
func rectIntersects(a, b stx.Rect) bool {
	return a.MinX <= b.MaxX && b.MinX <= a.MaxX &&
		a.MinY <= b.MaxY && b.MinY <= a.MaxY
}

// Query answers one query: the sorted IDs of the objects owning at least
// one matching record.
func (o *Oracle) Query(q stx.Query) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, r := range o.records {
		if r.Interval.Start >= q.Interval.End || q.Interval.Start >= r.Interval.End {
			continue
		}
		if !rectIntersects(r.Rect, q.Rect) {
			continue
		}
		if !seen[r.ObjectID] {
			seen[r.ObjectID] = true
			out = append(out, r.ObjectID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Answers precomputes the oracle answer for every query.
func (o *Oracle) Answers(qs []stx.Query) [][]int64 {
	out := make([][]int64, len(qs))
	for i, q := range qs {
		out[i] = o.Query(q)
	}
	return out
}

// KNN answers a k-nearest-neighbor query by brute force: for every
// object alive at t (some record's alive interval contains t), the
// minimum squared point-to-rectangle distance over its alive records,
// ranked ascending (Dist2, ObjectID) and truncated to k — exactly the
// pinned order every index kind must reproduce. Distances go through
// stx.Rect.MinDist2, the same arithmetic the tree traversals use, so the
// comparison is bit-exact, not epsilon-tolerant. Invalid parameters
// (k < 1, non-finite point) answer nil, mirroring the indexes'
// ValidateKNN rejection.
func (o *Oracle) KNN(x, y float64, t int64, k int) []stx.Neighbor {
	if stx.ValidateKNN(x, y, k) != nil {
		return nil
	}
	best := make(map[int64]float64)
	for _, r := range o.records {
		if r.Interval.Start > t || t >= r.Interval.End {
			continue
		}
		d2 := r.Rect.MinDist2(x, y)
		if cur, ok := best[r.ObjectID]; !ok || d2 < cur {
			best[r.ObjectID] = d2
		}
	}
	out := make([]stx.Neighbor, 0, len(best))
	for id, d2 := range best {
		out = append(out, stx.Neighbor{ObjectID: id, Dist2: d2})
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
	if len(out) == 0 {
		return nil
	}
	return out
}

// Trajectory answers a trajectory query by brute force: for every object
// with at least one record intersecting the region during the interval,
// how many of its records match, sorted ascending by object id — the
// exact per-object piece counts the indexes' record-to-object
// aggregation must reproduce. An empty or inverted interval answers nil
// (no record's half-open interval can overlap it), matching the
// traversal guards.
func (o *Oracle) Trajectory(r stx.Rect, iv stx.Interval) []stx.TrajectoryHit {
	if iv.End <= iv.Start {
		return nil
	}
	// An inverted (empty) region matches nothing, as the traversals'
	// AsQuery makes it. NaN coordinates fall out of the comparisons below
	// on both sides.
	if r.MinX > r.MaxX || r.MinY > r.MaxY {
		return nil
	}
	counts := make(map[int64]int)
	for _, rec := range o.records {
		if rec.Interval.Start >= iv.End || iv.Start >= rec.Interval.End {
			continue
		}
		if !rectIntersects(rec.Rect, r) {
			continue
		}
		counts[rec.ObjectID]++
	}
	if len(counts) == 0 {
		return nil
	}
	out := make([]stx.TrajectoryHit, 0, len(counts))
	for id, n := range counts {
		out = append(out, stx.TrajectoryHit{ObjectID: id, Pieces: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ObjectID < out[j].ObjectID })
	return out
}

// SortedIDs returns a sorted copy of ids — the canonical form the
// differential comparisons use.
func SortedIDs(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SameIDs reports whether two ID lists contain exactly the same set
// (order-insensitive, both sides are sorted copies).
func SameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := SortedIDs(a), SortedIDs(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// StrictlyAscending reports whether ids is a window answer in its pinned
// order: distinct ids, ascending. Every execution path must answer so.
func StrictlyAscending(ids []int64) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return false
		}
	}
	return true
}

// SameNeighbors reports whether two kNN answers are identical —
// including order and bit-exact distances. The answer order is pinned
// (ascending Dist2, then ObjectID), so serial, sharded and HTTP paths
// must agree verbatim, not merely as sets.
func SameNeighbors(a, b []stx.Neighbor) bool {
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

// SameTrajectories reports whether two trajectory answers are identical
// — order (ascending ObjectID) and per-object piece counts included.
func SameTrajectories(a, b []stx.TrajectoryHit) bool {
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
