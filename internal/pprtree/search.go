package pprtree

import (
	"stindex/internal/geom"
	"stindex/internal/pagefile"
	"stindex/internal/treewalk"
)

// SnapshotSearch reports every record alive at time t whose rectangle
// intersects query, stopping early when fn returns false. This is the
// paper's snapshot query: it resolves the root that was live at t via the
// root log and then behaves like an ephemeral R-tree search over the
// records alive at t. Node visits go through the buffer pool. The query
// is checked once (geom.Rect.AsQuery): an empty one reads the root and
// matches nothing. Each entry then costs its lifetime test and one
// geom.Rect.Hits, which needs no emptiness test because decodePNode
// refuses an inverted entry rectangle.
func (t *Tree) SnapshotSearch(query geom.Rect, at int64, fn func(rect geom.Rect, ref uint64) bool) error {
	root := t.rootAt(at)
	if root == nil {
		return nil
	}
	probe := query.AsQuery()
	// At one instant the alive structure is a strict tree.
	roots := append(t.walk.Roots(), uint64(root.page))
	return t.walk.DFS(roots, t.nodes.Store().NumPages(), false, func(id pagefile.PageID, stack []uint64) ([]uint64, bool, error) {
		n, err := t.nodes.ReadShared(id)
		if err != nil {
			return stack, false, err
		}
		if n.leaf {
			for i := range n.entries {
				e := &n.entries[i]
				if e.aliveAt(at) && probe.Hits(&e.rect) && !fn(e.rect, e.ref) {
					return stack, false, nil
				}
			}
			return stack, true, nil
		}
		for i := len(n.entries) - 1; i >= 0; i-- {
			e := &n.entries[i]
			if e.aliveAt(at) && probe.Hits(&e.rect) {
				stack = append(stack, e.ref)
			}
		}
		return stack, true, nil
	})
}

// NearestSearch emits every record alive at time `at` in ascending order
// of squared min-distance between its rectangle and the point (x, y),
// stopping when fn returns false: best-first search over the snapshot
// structure at `at` (see treewalk.BestFirst).
func (t *Tree) NearestSearch(x, y float64, at int64, fn func(dist2 float64, ref uint64) bool) error {
	root := t.rootAt(at)
	if root == nil {
		return nil
	}
	return t.walk.BestFirst(root.page, t.nodes.Store().NumPages(), func(id pagefile.PageID, queue []treewalk.Frame) ([]treewalk.Frame, error) {
		n, err := t.nodes.ReadShared(id)
		if err != nil {
			return queue, err
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.aliveAt(at) {
				queue = append(queue, treewalk.Frame{Dist: e.rect.MinDist2(x, y), Ref: e.ref, Entry: n.leaf})
			}
		}
		return queue, nil
	}, fn)
}

// IntervalSearch reports every record whose lifetime overlaps the
// half-open interval iv and whose rectangle intersects query. Each record
// reference is reported once even when version copies of it live in
// several nodes. This is the paper's (small) range query.
func (t *Tree) IntervalSearch(query geom.Rect, iv geom.Interval, fn func(rect geom.Rect, ref uint64) bool) error {
	seen := t.walk.Seen()
	defer t.walk.PutSeen(seen)
	return t.IntervalSearchRecords(query, iv, func(rect geom.Rect, _ geom.Interval, ref uint64) bool {
		if seen[ref] {
			return true
		}
		seen[ref] = true
		return fn(rect, ref)
	})
}

// IntervalSearchRecords is IntervalSearch without duplicate elimination:
// fn receives every version copy (rectangle, lifetime sub-interval,
// reference) whose lifetime overlaps iv and whose rectangle intersects
// query. Callers that need whole records aggregate the copies per
// reference. It walks every root whose span overlaps iv, each page once,
// and checks the query once, as SnapshotSearch does.
func (t *Tree) IntervalSearchRecords(query geom.Rect, iv geom.Interval, fn func(rect geom.Rect, iv geom.Interval, ref uint64) bool) error {
	if !iv.ValidInterval() {
		return nil
	}
	probe := query.AsQuery()
	roots := t.walk.Roots()
	for r := len(t.roots) - 1; r >= 0; r-- {
		root := &t.roots[r]
		if (geom.Interval{Start: root.start, End: root.end}).Overlaps(iv) {
			roots = append(roots, uint64(root.page))
		}
	}
	return t.walk.DFS(roots, t.nodes.Store().NumPages(), true, func(id pagefile.PageID, stack []uint64) ([]uint64, bool, error) {
		n, err := t.nodes.ReadShared(id)
		if err != nil {
			return stack, false, err
		}
		if n.leaf {
			for i := range n.entries {
				e := &n.entries[i]
				if e.interval().Overlaps(iv) && probe.Hits(&e.rect) && !fn(e.rect, e.interval(), e.ref) {
					return stack, false, nil
				}
			}
			return stack, true, nil
		}
		for i := len(n.entries) - 1; i >= 0; i-- {
			e := &n.entries[i]
			if e.interval().Overlaps(iv) && probe.Hits(&e.rect) {
				stack = append(stack, e.ref)
			}
		}
		return stack, true, nil
	})
}

// Touch advances the tree's clock without applying an update. Streaming
// callers use it so that "no change at time t" still respects the
// non-decreasing-time discipline.
func (t *Tree) Touch(time int64) error { return t.advance(time) }
