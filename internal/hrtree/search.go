package hrtree

import (
	"fmt"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
	"stindex/internal/treewalk"
)

// versionAt returns the version covering time q, or nil.
func (t *Tree) versionAt(q int64) *version {
	lo, hi := 0, len(t.versions)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		v := &t.versions[mid]
		switch {
		case q < v.start:
			hi = mid - 1
		case q >= v.end:
			lo = mid + 1
		default:
			return v
		}
	}
	return nil
}

// SnapshotSearch reports every record of the tree version at time at
// whose rectangle intersects query.
func (t *Tree) SnapshotSearch(query geom.Rect, at int64, fn func(rect geom.Rect, ref uint64) bool) error {
	v := t.versionAt(at)
	if v == nil {
		return nil
	}
	// One version is a strict tree: sharing happens only across versions.
	probe := query.AsQuery()
	roots := append(t.walk.Roots(), uint64(v.page))
	return t.walk.DFS(roots, t.nodes.Store().NumPages(), false, func(id pagefile.PageID, stack []uint64) ([]uint64, bool, error) {
		return t.expand(id, stack, &probe, fn)
	})
}

// IntervalSearch reports every record alive at some instant of iv whose
// rectangle intersects query, each reference once. This is the
// overlapping approach's weak spot: it must probe one tree per version
// overlapping the interval (shared pages are still visited only once).
func (t *Tree) IntervalSearch(query geom.Rect, iv geom.Interval, fn func(rect geom.Rect, ref uint64) bool) error {
	if !iv.ValidInterval() {
		return nil
	}
	seen := t.walk.Seen()
	defer t.walk.PutSeen(seen)
	once := func(rect geom.Rect, ref uint64) bool {
		if seen[ref] {
			return true
		}
		seen[ref] = true
		return fn(rect, ref)
	}
	probe := query.AsQuery()
	roots := t.walk.Roots()
	for i := len(t.versions) - 1; i >= 0; i-- {
		v := &t.versions[i]
		if (geom.Interval{Start: v.start, End: v.end}).Overlaps(iv) {
			roots = append(roots, uint64(v.page))
		}
	}
	return t.walk.DFS(roots, t.nodes.Store().NumPages(), true, func(id pagefile.PageID, stack []uint64) ([]uint64, bool, error) {
		return t.expand(id, stack, &probe, once)
	})
}

// expand is the depth-first step of both searches: an HR-tree entry
// carries no time fields (the version root is the time predicate), so
// only the rectangle is tested, with geom.Rect.Hits. The searches check
// the query once (geom.Rect.AsQuery), and decodeHNode refuses an inverted
// entry rectangle, so no emptiness test is left per entry.
func (t *Tree) expand(id pagefile.PageID, stack []uint64, probe *geom.Rect, fn func(rect geom.Rect, ref uint64) bool) ([]uint64, bool, error) {
	n, err := t.nodes.ReadShared(id)
	if err != nil {
		return stack, false, err
	}
	if n.leaf {
		for i := range n.entries {
			e := &n.entries[i]
			if probe.Hits(&e.rect) && !fn(e.rect, e.ref) {
				return stack, false, nil
			}
		}
		return stack, true, nil
	}
	for i := len(n.entries) - 1; i >= 0; i-- {
		e := &n.entries[i]
		if probe.Hits(&e.rect) {
			stack = append(stack, e.ref)
		}
	}
	return stack, true, nil
}

// NearestSearch emits every record of the tree version at time `at` in
// ascending order of squared min-distance between its rectangle and the
// point (x, y), stopping when fn returns false: best-first search over
// the version's strict tree (see treewalk.BestFirst).
func (t *Tree) NearestSearch(x, y float64, at int64, fn func(dist2 float64, ref uint64) bool) error {
	v := t.versionAt(at)
	if v == nil {
		return nil
	}
	return t.walk.BestFirst(v.page, t.nodes.Store().NumPages(), func(id pagefile.PageID, queue []treewalk.Frame) ([]treewalk.Frame, error) {
		n, err := t.nodes.ReadShared(id)
		if err != nil {
			return queue, err
		}
		for i := range n.entries {
			e := &n.entries[i]
			queue = append(queue, treewalk.Frame{Dist: e.rect.MinDist2(x, y), Ref: e.ref, Entry: n.leaf})
		}
		return queue, nil
	}, fn)
}

// Validate checks the structural invariants of every version: uniform
// leaf depth per version, fill bounds (roots exempt), and tight parent
// rectangles. Shared subtrees are checked once per shape.
func (t *Tree) Validate() error {
	if len(t.versions) == 0 {
		return fmt.Errorf("hrtree: no versions")
	}
	for i := range t.versions {
		v := &t.versions[i]
		if v.start >= v.end {
			return fmt.Errorf("hrtree: version %d span empty", i)
		}
		if i > 0 && t.versions[i-1].end != v.start {
			return fmt.Errorf("hrtree: version gap at %d", i)
		}
		var walk func(id pagefile.PageID, depth int, isRoot bool) (geom.Rect, error)
		walk = func(id pagefile.PageID, depth int, isRoot bool) (geom.Rect, error) {
			n, err := t.nodes.ReadShared(id)
			if err != nil {
				return geom.Rect{}, err
			}
			if !isRoot && (len(n.entries) < t.opts.MinEntries || len(n.entries) > t.opts.MaxEntries) {
				return geom.Rect{}, fmt.Errorf("hrtree: version %d node %d has %d entries", i, id, len(n.entries))
			}
			if n.leaf {
				if depth != v.height {
					return geom.Rect{}, fmt.Errorf("hrtree: version %d leaf at depth %d, want %d", i, depth, v.height)
				}
				return n.mbr(), nil
			}
			for _, e := range n.entries {
				childMBR, err := walk(pagefile.PageID(e.ref), depth+1, false)
				if err != nil {
					return geom.Rect{}, err
				}
				if e.rect != childMBR {
					return geom.Rect{}, fmt.Errorf("hrtree: version %d node %d entry rect %v != child mbr %v",
						i, id, e.rect, childMBR)
				}
			}
			return n.mbr(), nil
		}
		if _, err := walk(v.page, 1, true); err != nil {
			return err
		}
	}
	return nil
}
