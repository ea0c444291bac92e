package pprtree

import (
	"slices"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// The record locator answers findAliveRecord without a search. It lives
// for one write-back bracket, beside the resident table, and holds two
// kinds of link, both registered where entries join a live node (fixup's
// appendEntries and newNode, the sites that register back-references):
//
//   - Tree.located: an alive leaf record's ref → the resident leaf that
//     holds it, pruned when the record is deleted or its leaf dies, so it
//     is bounded by the alive records;
//   - pnode.parent: a live node → the resident directory node holding its
//     alive entry, overwritten when that entry is copied to a fresh node.
//
// A bracket keeps a locator only when it opens on a tree with no alive
// record. Every alive record is then one the bracket saw added, the table
// is complete, and "this ref has one alive copy" is a fact, not a guess:
// the depth-first search matches on (ref, rect) and takes the first match
// in entry order, so with a second alive copy somewhere the bracket never
// looked — an append to a tree that already holds the ref — the leaf the
// locator knows need not be the one the search picks, and which copy is
// closed is visible in the pages. Brackets over existing alive records
// (AppendRecords to a non-empty tree, every ingest commit group but a
// tree's first) therefore run without one and pay nothing for it.

// recLoc is what the locator knows of one ref.
type recLoc struct {
	// leaf is the resident leaf holding the ref's alive copy; nil once a
	// second alive copy made the ref ambiguous, until every copy is gone.
	leaf   *pnode
	copies int
}

// trackLocation registers the entries just added to live node n.
func (t *Tree) trackLocation(n *pnode, added []pentry) {
	if t.located == nil {
		return
	}
	if !n.leaf {
		for _, e := range added {
			if child := t.resident[pagefile.PageID(e.ref)]; child != nil {
				child.parent = n
			}
		}
		return
	}
	for _, e := range added {
		l := t.located[e.ref]
		l.copies++
		l.leaf = n
		if l.copies > 1 {
			l.leaf = nil
		}
		t.located[e.ref] = l
	}
}

// untrackRecord forgets one alive copy of ref: the record was deleted, or
// the leaf holding it died and a fresh leaf is about to register the copy.
func (t *Tree) untrackRecord(ref uint64) {
	if t.located == nil {
		return
	}
	l := t.located[ref]
	if l.copies--; l.copies <= 0 {
		delete(t.located, ref)
		return
	}
	t.located[ref] = l
}

// locateAliveRecord is findAliveRecord answered from the locator: the
// leaf the ref names, scanned for the slot as the search scans it, and
// the parent links up to the live root. It returns a nil path — search
// instead — when the ref is unknown or has more than one alive copy, the
// leaf holds no alive (ref, rect), or the links do not lead through live
// nodes to the live root at the live height. Otherwise the one alive copy
// is the entry the search would reach: every directory entry above a
// record contains its rectangle.
func (t *Tree) locateAliveRecord(rect geom.Rect, ref uint64) ([]*pnode, int) {
	n := t.located[ref].leaf
	if n == nil {
		return nil, 0
	}
	idx := n.aliveSlot(rect, ref)
	if idx == -1 {
		return nil, 0
	}
	root := t.liveRoot()
	path := slices.Grow(t.path[:0], root.height)[:root.height]
	for i := root.height - 1; ; i-- {
		if !n.live() {
			return nil, 0
		}
		path[i] = n
		if i == 0 {
			break
		}
		if n = n.parent; n == nil {
			return nil, 0
		}
	}
	if n.id != root.page {
		return nil, 0
	}
	t.path = path
	return path, idx
}
