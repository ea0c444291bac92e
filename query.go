package stindex

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// QueryKind selects which question a Query asks. The zero value is the
// paper's window search, so existing Query literals keep their meaning.
type QueryKind uint8

const (
	// KindWindow is the paper's window/interval search: objects
	// intersecting Rect at some instant of Interval.
	KindWindow QueryKind = iota
	// KindKNN is k-nearest-neighbor search at one instant: the K objects
	// alive at Interval.Start whose rectangles are nearest to the point
	// (Rect.MinX, Rect.MinY).
	KindKNN
	// KindTrajectory is the trajectory predicate: objects whose path
	// crossed Rect at some instant of Interval, reported with how many of
	// their split pieces matched (multi-entry style).
	KindTrajectory
)

// String names the kind the way the /query HTTP parameter spells it.
func (k QueryKind) String() string {
	switch k {
	case KindKNN:
		return "knn"
	case KindTrajectory:
		return "trajectory"
	default:
		return "window"
	}
}

// ErrBadQuery is wrapped by every query-validation failure (k < 1,
// non-finite kNN point). Test with errors.Is; the serving layer maps it
// to HTTP 400.
var ErrBadQuery = errors.New("stindex: invalid query")

// Neighbor is one kNN answer. Dist2 is the squared Euclidean distance
// from the query point to the nearest point of the object's rectangle at
// the query instant (0 when the point lies inside it). Distances stay
// squared end to end: the square root is not monotone over distinct
// float64 values after rounding, so comparing squared values is what
// keeps serial, sharded and oracle answers bit-identical.
//
// Answers are ordered by ascending (Dist2, ObjectID). The ObjectID
// tie-break — rather than, say, record ref then insertion time — is
// deliberate: refs are shard-local and insertion order is
// partitioner-dependent, while object IDs mean the same thing in every
// execution path, so the pinned order survives the sharded merge.
type Neighbor struct {
	ObjectID int64
	Dist2    float64
}

// TrajectoryHit is one trajectory-query answer: an object whose path
// crossed the query region during the query interval, with the number of
// its distinct split pieces (index records) that matched. Hits are
// ordered by ascending ObjectID.
type TrajectoryHit struct {
	ObjectID int64
	Pieces   int
}

// QueryResult is the kind-polymorphic answer of RunQueryResult. IDs is
// populated for every kind (for kNN in ascending (Dist2, ObjectID)
// order, otherwise ascending); Neighbors only for KindKNN, Trajectories
// only for KindTrajectory.
type QueryResult struct {
	IDs          []int64
	Neighbors    []Neighbor
	Trajectories []TrajectoryHit
}

// KNNQuery builds a k-nearest-neighbor query: the k objects alive at
// instant t nearest to (x, y).
func KNNQuery(x, y float64, t int64, k int) Query {
	return Query{
		Kind:     KindKNN,
		Rect:     Rect{MinX: x, MinY: y, MaxX: x, MaxY: y},
		Interval: Interval{Start: t, End: t + 1},
		K:        k,
	}
}

// TrajectoryQuery builds a trajectory query: the objects whose path
// crossed r at some instant of iv.
func TrajectoryQuery(r Rect, iv Interval) Query {
	return Query{Kind: KindTrajectory, Rect: r, Interval: iv}
}

// RunQueryResult executes one query of any kind and returns the full
// answer — the one place a Query's kind is dispatched onto the Index
// methods. RunQuery is the IDs-only shorthand.
func RunQueryResult(idx Index, q Query) (QueryResult, error) {
	switch q.Kind {
	case KindKNN:
		nb, err := idx.Nearest(q.Rect.MinX, q.Rect.MinY, q.Interval.Start, q.K)
		if err != nil {
			return QueryResult{}, err
		}
		ids := make([]int64, len(nb))
		for i, n := range nb {
			ids[i] = n.ObjectID
		}
		return QueryResult{IDs: ids, Neighbors: nb}, nil
	case KindTrajectory:
		hits, err := idx.Trajectory(q.Rect, q.Interval)
		if err != nil {
			return QueryResult{}, err
		}
		ids := make([]int64, len(hits))
		for i, h := range hits {
			ids[i] = h.ObjectID
		}
		return QueryResult{IDs: ids, Trajectories: hits}, nil
	default:
		var ids []int64
		var err error
		if q.IsSnapshot() {
			ids, err = idx.Snapshot(q.Rect, q.Interval.Start)
		} else {
			ids, err = idx.Range(q.Rect, q.Interval)
		}
		if err != nil {
			return QueryResult{}, err
		}
		return QueryResult{IDs: ids}, nil
	}
}

// ValidateKNN rejects malformed kNN arguments: k < 1 or a non-finite
// query point. Every Nearest implementation calls it before traversing,
// so malformed input surfaces as ErrBadQuery instead of garbage answers
// (NaN breaks any comparison-based pruning).
func ValidateKNN(x, y float64, k int) error {
	if k < 1 {
		return fmt.Errorf("%w: k must be >= 1, got %d", ErrBadQuery, k)
	}
	if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("%w: non-finite query point (%v, %v)", ErrBadQuery, x, y)
	}
	return nil
}

// MinDist2 returns the squared Euclidean distance from (x, y) to the
// nearest point of r — the branch-and-bound MINDIST bound, and the exact
// distance notion Neighbor.Dist2 reports.
func (r Rect) MinDist2(x, y float64) float64 { return r.internal().MinDist2(x, y) }

// knnCollector accumulates the k best (Dist2, ObjectID) pairs from a
// best-first traversal that emits candidates in non-decreasing distance
// order. add reports whether the traversal should continue: false only
// once the list is full and the emitted distance strictly exceeds the
// current k-th best — an equal distance may still displace a larger
// ObjectID under the pinned tie order.
type knnCollector struct {
	k  int
	nb []Neighbor
}

func (c *knnCollector) add(d2 float64, id int64) bool {
	if len(c.nb) == c.k && d2 > c.nb[len(c.nb)-1].Dist2 {
		return false
	}
	c.nb = mergeNeighbor(c.nb, Neighbor{ObjectID: id, Dist2: d2}, c.k)
	return true
}

// mergeNeighbor inserts n into nb (kept ascending by (Dist2, ObjectID)),
// deduplicating per object — the smaller key wins — and truncating to k.
func mergeNeighbor(nb []Neighbor, n Neighbor, k int) []Neighbor {
	for i := range nb {
		if nb[i].ObjectID == n.ObjectID {
			if n.Dist2 >= nb[i].Dist2 {
				return nb
			}
			nb = append(nb[:i], nb[i+1:]...)
			break
		}
	}
	i := sort.Search(len(nb), func(i int) bool {
		if nb[i].Dist2 != n.Dist2 {
			return nb[i].Dist2 > n.Dist2
		}
		return nb[i].ObjectID > n.ObjectID
	})
	if i >= k {
		return nb
	}
	nb = append(nb, Neighbor{})
	copy(nb[i+1:], nb[i:])
	nb[i] = n
	if len(nb) > k {
		nb = nb[:k]
	}
	return nb
}

// MergeNeighbors merges src into dst under the global (Dist2, ObjectID)
// order, deduplicating per object (the smaller key wins) and truncating
// to k. This is the scatter-gather merge of the sharded router: merging
// per-shard top-k lists this way yields exactly the global top-k,
// because the global answer is a subset of the union of per-shard
// answers under the same order.
func MergeNeighbors(dst, src []Neighbor, k int) []Neighbor {
	for _, n := range src {
		dst = mergeNeighbor(dst, n, k)
	}
	return dst
}

// MergeIDs unions per-part window answers (shards, or the frozen and live
// halves of an ingesting stream) into one de-duplicated, ascending id
// list — the same answer whatever order the parts finished in. Every part
// must itself be ascending, as every Index's window answer is; the union
// is a k-way merge of them. It consumes the lists: the result may be one
// of them.
func MergeIDs(lists ...[]int64) []int64 {
	return mergeAscending(lists, func(h int64) int64 { return h }, func(*int64, int64) {})
}

// MergeTrajectories sums per-part trajectory answers into one, ascending
// by ObjectID. Every record lives in exactly one part, so an object's
// piece counts add up to what a single index would report. Like MergeIDs
// it merges ascending parts and may return one of them.
func MergeTrajectories(lists ...[]TrajectoryHit) []TrajectoryHit {
	return mergeAscending(lists, func(h TrajectoryHit) int64 { return h.ObjectID },
		func(dst *TrajectoryHit, h TrajectoryHit) { dst.Pieces += h.Pieces })
}

// mergeAscending is the k-way merge behind MergeIDs and MergeTrajectories:
// it repeatedly takes the smallest head of the parts, each ascending by
// key, and folds an element whose key equals the last one taken into it
// with same. A lone non-empty part is returned as it is.
func mergeAscending[T any](lists [][]T, key func(T) int64, same func(dst *T, src T)) []T {
	total, last := 0, -1
	heads := make([][]T, 0, len(lists))
	for i, l := range lists {
		if len(l) > 0 {
			total += len(l)
			last = i
			heads = append(heads, l)
		}
	}
	switch len(heads) {
	case 0:
		return nil
	case 1:
		return lists[last]
	}
	keys := make([]int64, len(heads)) // keys[i] = key(heads[i][0])
	for i, h := range heads {
		keys[i] = key(h[0])
	}
	out := make([]T, 0, total)
	var prev int64 // the key of out's last element
	for len(heads) > 0 {
		m := 0
		for i := 1; i < len(keys); i++ {
			if keys[i] < keys[m] {
				m = i
			}
		}
		if n := len(out); n > 0 && prev == keys[m] {
			same(&out[n-1], heads[m][0])
		} else {
			out = append(out, heads[m][0])
			prev = keys[m]
		}
		if heads[m] = heads[m][1:]; len(heads[m]) > 0 {
			keys[m] = key(heads[m][0])
			continue
		}
		end := len(heads) - 1
		heads[m], keys[m] = heads[end], keys[end]
		heads, keys = heads[:end], keys[:end]
	}
	return out
}
