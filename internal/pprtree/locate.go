package pprtree

import (
	"slices"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// The record locator answers findAliveRecord without a search. It lives
// beside the resident table, from bracket to bracket as the table does,
// and holds two kinds of link, both registered where entries join a live
// node (fixup's appendEntries and newNode, the sites that register
// back-references):
//
//   - Tree.located: an alive leaf record's ref → the resident leaf that
//     holds it, pruned when the record is deleted or its leaf dies, so it
//     is bounded by the alive records;
//   - pnode.parent: a live node → the resident directory node holding its
//     alive entry, overwritten when that entry is copied to a fresh node.
//
// A locator must have seen every alive copy: the depth-first search
// matches on (ref, rect) and takes the first match in entry order, so
// with a second alive copy the locator never saw — an append to a tree
// that already holds the ref — the leaf it knows need not be the one the
// search picks, and which copy is closed is visible in the pages. So a
// bracket that opens with nothing kept builds its locator over every
// alive copy: over a tree with no alive record it starts empty and sees
// each record added; over alive records — a tree opened or recovered
// from a container, an AppendRecords onto one, the first bracket after a
// write outside one — it takes one walk of the live tree (locateBelow),
// which reads every live node into the table and registers every alive
// copy. Then "this ref has one alive copy" is a fact, not a guess, and a
// ref with more goes to the search.

// recLoc is what the locator knows of one ref.
type recLoc struct {
	// leaf is the resident leaf holding the ref's alive copy; nil once a
	// second alive copy made the ref ambiguous, until every copy is gone.
	leaf   *pnode
	copies int
}

// openLocator is the node layer's bracket-open hook: a bracket that opens
// on the table the last one kept keeps its locator too; one that opens
// empty builds the locator over every alive copy.
func (t *Tree) openLocator(kept bool) error {
	if kept {
		return nil
	}
	t.located = make(map[uint64]recLoc)
	if t.alive == 0 {
		return nil
	}
	_, err := t.locateBelow(t.liveRoot().page)
	return err
}

// trackLocation registers the entries just added to live node n.
func (t *Tree) trackLocation(n *pnode, added []pentry) {
	if !t.nodes.InBracket() {
		return
	}
	if !n.leaf {
		for _, e := range added {
			if child, ok := t.nodes.Resident(pagefile.PageID(e.ref)); ok {
				child.parent = n
			}
		}
		return
	}
	for _, e := range added {
		t.locateCopy(n, e.ref)
	}
}

// locateCopy registers one more alive copy of ref, held by leaf n.
func (t *Tree) locateCopy(n *pnode, ref uint64) {
	l := t.located[ref]
	l.copies++
	l.leaf = n
	if l.copies > 1 {
		l.leaf = nil
	}
	t.located[ref] = l
}

// locateBelow reads the live subtree under page id into the resident
// table and registers its alive entries with the locator, as
// trackLocation registers entries that join a node. It returns the
// subtree's root.
func (t *Tree) locateBelow(id pagefile.PageID) (*pnode, error) {
	n, err := t.nodes.Read(id)
	if err != nil {
		return nil, err
	}
	for i := range n.entries {
		e := &n.entries[i]
		switch {
		case !e.alive():
		case n.leaf:
			t.locateCopy(n, e.ref)
		default:
			child, err := t.locateBelow(pagefile.PageID(e.ref))
			if err != nil {
				return nil, err
			}
			child.parent = n
		}
	}
	return n, nil
}

// untrackRecord forgets one alive copy of ref: the record was deleted, or
// the leaf holding it died and a fresh leaf is about to register the copy.
func (t *Tree) untrackRecord(ref uint64) {
	if !t.nodes.InBracket() {
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
	if !t.nodes.InBracket() {
		return nil, 0
	}
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
