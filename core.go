package stindex

import (
	"fmt"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
	"stindex/internal/rstar"
)

// The query core. Every single-tree index kind (PPRIndex, RStarIndex,
// HRIndex, StreamIndex) embeds treeIndex, which implements the four query
// methods and the buffer/space statistics of Index once, over two small
// views of what the kind is made of: its tree as searches that emit
// record references (refSearch), and the table that says which object a
// reference belongs to (ownerTable). A new tree kind supplies those two
// and a name; it writes no query method.

// refSearch is a tree seen as searches that emit record references (and
// the rectangle stored with each, which the query core ignores).
// pprtree.Tree and hrtree.Tree — one logical 2D R-tree per instant,
// queried by time — are refSearches as they stand; timeSlab makes one of
// a 3D R*-tree.
type refSearch interface {
	// SnapshotSearch emits every record alive at instant at whose
	// rectangle intersects query.
	SnapshotSearch(query geom.Rect, at int64, fn func(rect geom.Rect, ref uint64) bool) error
	// IntervalSearch emits every record alive at some instant of iv
	// whose rectangle intersects query, each reference once.
	IntervalSearch(query geom.Rect, iv geom.Interval, fn func(rect geom.Rect, ref uint64) bool) error
	// NearestSearch emits the records alive at instant at in ascending
	// order of squared min-distance to (x, y).
	NearestSearch(x, y float64, at int64, fn func(dist2 float64, ref uint64) bool) error
	Buffer() *pagefile.Buffer
	Store() pagefile.Store
}

// timeSlab is the refSearch view of a 3D R*-tree whose third axis is time
// multiplied by scale. Records store the closed range [start*scale,
// end*scale]; probing at mid-instant offsets (+0.5 from each side) makes
// closed-box intersection equivalent to half-open interval overlap for
// integer timestamps.
type timeSlab struct {
	*rstar.Tree
	scale float64
}

func (s timeSlab) SnapshotSearch(query geom.Rect, at int64, fn func(rect geom.Rect, ref uint64) bool) error {
	return s.IntervalSearch(query, geom.Interval{Start: at, End: at + 1}, fn)
}

func (s timeSlab) IntervalSearch(query geom.Rect, iv geom.Interval, fn func(rect geom.Rect, ref uint64) bool) error {
	if !iv.ValidInterval() {
		// The mid-instant probes of an empty interval would cross over
		// and match records around it.
		return nil
	}
	box := geom.Box3{
		Min: [3]float64{query.MinX, query.MinY, (float64(iv.Start) + 0.5) * s.scale},
		Max: [3]float64{query.MaxX, query.MaxY, (float64(iv.End) - 0.5) * s.scale},
	}
	return s.Search(box, func(b geom.Box3, ref uint64) bool {
		return fn(geom.Rect{MinX: b.Min[0], MinY: b.Min[1], MaxX: b.Max[0], MaxY: b.Max[1]}, ref)
	})
}

// NearestSearch probes the time coordinate (at+0.5)*scale, strictly
// inside the closed range of exactly the records whose half-open lifetime
// contains at.
func (s timeSlab) NearestSearch(x, y float64, at int64, fn func(dist2 float64, ref uint64) bool) error {
	return s.Tree.NearestSearch(x, y, (float64(at)+0.5)*s.scale, fn)
}

// ownerTable maps record references to the objects they belong to.
// stream.Indexer is one (references are handed out as pieces are cut);
// recordOwners is the other.
type ownerTable interface {
	OwnerRef(ref uint64) (int64, bool)
	Records() int
}

// recordOwners is the owner table of an index built from a record slice:
// record i carries reference i and belongs to object recordOwners[i].
type recordOwners []int64

// OwnerRef implements ownerTable.
func (o recordOwners) OwnerRef(ref uint64) (int64, bool) {
	if ref >= uint64(len(o)) {
		return 0, false
	}
	return o[ref], true
}

// Records implements ownerTable.
func (o recordOwners) Records() int { return len(o) }

// treeIndex is the query core (see the top of this file).
type treeIndex[O ownerTable] struct {
	fileHandle
	search refSearch
	owners O
	kind   string
	// Answer scratch, pooled on the index (or the query view of it) like
	// the tree's treewalk.Scratch and no safer for concurrent use: the set
	// of owners a window query has emitted, and the per-owner piece counts
	// of a trajectory query.
	seen   map[int64]bool
	counts map[int64]int
}

// pooledAnswerCap is the largest answer whose scratch map goes back to
// the pool. A wider one is left to the collector: a map never shrinks,
// and every view of every shard would otherwise hold on to the footprint
// of the widest answer it ever gave.
const pooledAnswerCap = 1024

// borrowMap takes the pooled map, cleared, leaving the pool empty — a
// query started from inside a callback makes its own. Pair with
// returnMap.
func borrowMap[V any](pool *map[int64]V) map[int64]V {
	m := *pool
	*pool = nil
	if m == nil {
		return make(map[int64]V)
	}
	clear(m)
	return m
}

func returnMap[V any](pool *map[int64]V, m map[int64]V) {
	if len(m) <= pooledAnswerCap {
		*pool = m
	}
}

// owner is the one owner lookup of the query path. A reference the table
// does not know means a corrupt or mismatched image: it must surface as
// the query's error (left in *dangling, and ok=false stops the search),
// not as a panic or as object 0.
func (c *treeIndex[O]) owner(ref uint64, dangling *error) (id int64, ok bool) {
	id, ok = c.owners.OwnerRef(ref)
	if !ok {
		*dangling = fmt.Errorf("stindex: %s record ref %d has no owner among %d records (corrupt index image?)",
			c.kind, ref, c.owners.Records())
	}
	return id, ok
}

// ids collects the distinct owners of the references one window search
// emits, in emission order.
func (c *treeIndex[O]) ids(search func(emit func(geom.Rect, uint64) bool) error) ([]int64, error) {
	var out []int64
	var dangling error
	seen := borrowMap(&c.seen)
	defer func() { returnMap(&c.seen, seen) }()
	err := search(func(_ geom.Rect, ref uint64) bool {
		id, ok := c.owner(ref, &dangling)
		if ok && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
		return ok
	})
	if err == nil {
		err = dangling
	}
	return out, err
}

// Snapshot implements Index.
func (c *treeIndex[O]) Snapshot(r Rect, t int64) ([]int64, error) {
	return c.ids(func(emit func(geom.Rect, uint64) bool) error {
		return c.search.SnapshotSearch(r.internal(), t, emit)
	})
}

// Range implements Index.
func (c *treeIndex[O]) Range(r Rect, iv Interval) ([]int64, error) {
	return c.ids(func(emit func(geom.Rect, uint64) bool) error {
		return c.search.IntervalSearch(r.internal(), iv.internal(), emit)
	})
}

// Nearest implements Index: best-first search at instant t, cut off by
// the collector once the k-th best distance is exceeded.
func (c *treeIndex[O]) Nearest(x, y float64, t int64, k int) ([]Neighbor, error) {
	if err := ValidateKNN(x, y, k); err != nil {
		return nil, err
	}
	col := knnCollector{k: k}
	var dangling error
	err := c.search.NearestSearch(x, y, t, func(d2 float64, ref uint64) bool {
		id, ok := c.owner(ref, &dangling)
		return ok && col.add(d2, id)
	})
	if err == nil {
		err = dangling
	}
	if err != nil {
		return nil, err
	}
	return col.nb, nil
}

// Trajectory implements Index: a window search reports each record (split
// piece) once, so counting references per owner yields the multi-entry
// trajectory answer.
func (c *treeIndex[O]) Trajectory(r Rect, iv Interval) ([]TrajectoryHit, error) {
	counts := borrowMap(&c.counts)
	defer func() { returnMap(&c.counts, counts) }()
	var dangling error
	err := c.search.IntervalSearch(r.internal(), iv.internal(), func(_ geom.Rect, ref uint64) bool {
		id, ok := c.owner(ref, &dangling)
		if ok {
			counts[id]++
		}
		return ok
	})
	if err == nil {
		err = dangling
	}
	if err != nil {
		return nil, err
	}
	return trajectoryHits(counts), nil
}

// ResetBuffer implements Index.
func (c *treeIndex[O]) ResetBuffer() { c.search.Buffer().Reset() }

// IOStats implements Index.
func (c *treeIndex[O]) IOStats() IOStats {
	s := c.search.Buffer().Stats()
	return IOStats{Reads: s.Reads, Writes: s.Writes, Hits: s.Hits}
}

// Pages implements Index.
func (c *treeIndex[O]) Pages() int { return c.search.Store().NumPages() }

// Bytes implements Index.
func (c *treeIndex[O]) Bytes() int64 { return c.search.Store().Bytes() }

// Records implements Index: the number of MBR records (for a stream
// index, lifetime pieces) indexed so far.
func (c *treeIndex[O]) Records() int { return c.owners.Records() }

// Kind implements Index.
func (c *treeIndex[O]) Kind() string { return c.kind }
