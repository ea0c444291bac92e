package stindex

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"stindex/internal/geom"
	"stindex/internal/owner"
	"stindex/internal/pagefile"
	"stindex/internal/rstar"
)

// The query core. Every single-tree index kind (PPRIndex, RStarIndex,
// HRIndex, StreamIndex) embeds treeIndex, which implements the four query
// methods and the buffer/space statistics of Index once, over two small
// views of what the kind is made of: its tree as searches that emit
// record references (refSearch), and the table that says which object a
// reference belongs to (owner.Table). A new tree kind supplies those two
// and a name; it writes no query method. Window and trajectory answers
// come out in ascending id order.

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

// treeIndex is the query core (see the top of this file).
type treeIndex struct {
	fileHandle
	search refSearch
	// owners is the index's owner table, shared by every view of it. A
	// stream index points at its indexer's table, which grows as pieces
	// are cut.
	owners *owner.Table
	kind   string
	// answers is the view's answer collector, pooled like the tree's
	// treewalk.Scratch and no safer for concurrent use.
	answers *answerSet
}

// answerSet collects the distinct owners of one window search as a
// bitset over owner ordinals. Bit j of sum[i] is set when bits[64i+j] is
// non-zero, so a drain visits only the words a query touched, in
// ascending ordinal order, and leaves both clear for the next query.
// counts holds a trajectory query's pieces per ordinal, zeroed as its
// bits drain.
type answerSet struct {
	bits   []uint64
	sum    []uint64
	counts []uint32
	n      int // ordinals set
}

// borrowSet takes the view's collector, sized for objects ordinals,
// leaving the pool empty — a query started from inside a callback makes
// its own. The caller puts it back in c.answers once it has drained it.
func (c *treeIndex) borrowSet(objects int, counts bool) *answerSet {
	s := c.answers
	c.answers = nil
	if s == nil {
		s = new(answerSet)
	}
	if words := (objects + 63) >> 6; len(s.bits) < words {
		s.bits = make([]uint64, words)
		s.sum = make([]uint64, (words+63)>>6)
		s.counts = nil
	}
	if counts && len(s.counts) < objects {
		s.counts = make([]uint32, len(s.bits)<<6)
	}
	return s
}

func (s *answerSet) add(o uint32) {
	w := o >> 6
	if m := uint64(1) << (o & 63); s.bits[w]&m == 0 {
		s.bits[w] |= m
		s.sum[w>>6] |= 1 << (w & 63)
		s.n++
	}
}

// drain calls fn with every ordinal set, in ascending order, and clears
// the set.
func (s *answerSet) drain(fn func(o int)) {
	for i, sw := range s.sum {
		if sw == 0 {
			continue
		}
		s.sum[i] = 0
		for ; sw != 0; sw &= sw - 1 {
			w := i<<6 | bits.TrailingZeros64(sw)
			b := s.bits[w]
			s.bits[w] = 0
			for ; b != 0; b &= b - 1 {
				fn(w<<6 | bits.TrailingZeros64(b))
			}
		}
	}
	s.n = 0
}

// collect runs one window search into set: the owner ordinal of every
// reference it emits, and for a trajectory query its piece count. A
// reference the table does not know means a corrupt or mismatched image:
// it must surface as the query's error (the search stops there), not as
// a panic or as object 0, and it leaves set cleared.
func (c *treeIndex) collect(tab *owner.Table, set *answerSet, count bool, search func(emit func(geom.Rect, uint64) bool) error) error {
	ord := tab.Ord
	var dangling error
	err := search(func(_ geom.Rect, ref uint64) bool {
		if ref >= uint64(len(ord)) {
			dangling = c.danglingRef(tab, ref)
			return false
		}
		o := ord[ref]
		set.add(o)
		if count {
			set.counts[o]++
		}
		return true
	})
	if err == nil {
		err = dangling
	}
	if err != nil {
		set.drain(func(o int) {
			if count {
				set.counts[o] = 0
			}
		})
	}
	return err
}

func (c *treeIndex) danglingRef(tab *owner.Table, ref uint64) error {
	return fmt.Errorf("stindex: %s record ref %d has no owner among %d records (corrupt index image?)",
		c.kind, ref, tab.Records())
}

// ids collects the distinct owners of the references one window search
// emits, in ascending order.
func (c *treeIndex) ids(search func(emit func(geom.Rect, uint64) bool) error) ([]int64, error) {
	tab := c.owners
	set := c.borrowSet(len(tab.IDs), false)
	defer func() { c.answers = set }()
	if err := c.collect(tab, set, false, search); err != nil || set.n == 0 {
		return nil, err
	}
	out := make([]int64, 0, set.n)
	set.drain(func(o int) { out = append(out, tab.IDs[o]) })
	if !tab.Ascending && !slices.IsSorted(out) {
		slices.Sort(out)
	}
	return out, nil
}

// Snapshot implements Index.
func (c *treeIndex) Snapshot(r Rect, t int64) ([]int64, error) {
	return c.ids(func(emit func(geom.Rect, uint64) bool) error {
		return c.search.SnapshotSearch(r.internal(), t, emit)
	})
}

// Range implements Index.
func (c *treeIndex) Range(r Rect, iv Interval) ([]int64, error) {
	return c.ids(func(emit func(geom.Rect, uint64) bool) error {
		return c.search.IntervalSearch(r.internal(), iv.internal(), emit)
	})
}

// Nearest implements Index: best-first search at instant t, cut off by
// the collector once the k-th best distance is exceeded.
func (c *treeIndex) Nearest(x, y float64, t int64, k int) ([]Neighbor, error) {
	if err := ValidateKNN(x, y, k); err != nil {
		return nil, err
	}
	tab := c.owners
	col := knnCollector{k: k}
	var dangling error
	err := c.search.NearestSearch(x, y, t, func(d2 float64, ref uint64) bool {
		id, ok := tab.Owner(ref)
		if !ok {
			dangling = c.danglingRef(tab, ref)
		}
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
func (c *treeIndex) Trajectory(r Rect, iv Interval) ([]TrajectoryHit, error) {
	tab := c.owners
	set := c.borrowSet(len(tab.IDs), true)
	defer func() { c.answers = set }()
	err := c.collect(tab, set, true, func(emit func(geom.Rect, uint64) bool) error {
		return c.search.IntervalSearch(r.internal(), iv.internal(), emit)
	})
	if err != nil || set.n == 0 {
		return nil, err
	}
	out := make([]TrajectoryHit, 0, set.n)
	set.drain(func(o int) {
		out = append(out, TrajectoryHit{ObjectID: tab.IDs[o], Pieces: int(set.counts[o])})
		set.counts[o] = 0
	})
	byID := func(a, b TrajectoryHit) int { return cmp.Compare(a.ObjectID, b.ObjectID) }
	if !tab.Ascending && !slices.IsSortedFunc(out, byID) {
		slices.SortFunc(out, byID)
	}
	return out, nil
}

// ResetBuffer implements Index.
func (c *treeIndex) ResetBuffer() { c.search.Buffer().Reset() }

// IOStats implements Index.
func (c *treeIndex) IOStats() IOStats {
	return c.search.Buffer().Stats()
}

// Pages implements Index.
func (c *treeIndex) Pages() int { return c.search.Store().NumPages() }

// Bytes implements Index.
func (c *treeIndex) Bytes() int64 { return c.search.Store().Bytes() }

// Records implements Index: the number of MBR records (for a stream
// index, lifetime pieces) indexed so far.
func (c *treeIndex) Records() int { return c.owners.Records() }

// Kind implements Index.
func (c *treeIndex) Kind() string { return c.kind }
