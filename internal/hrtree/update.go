package hrtree

import (
	"fmt"
	"slices"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// Insert adds a record alive from time onward.
func (t *Tree) Insert(rect geom.Rect, ref uint64, time int64) error {
	if !rect.Valid() {
		return fmt.Errorf("hrtree: invalid rect %v", rect)
	}
	if err := t.advance(time); err != nil {
		return err
	}
	t.size++
	t.alive++
	path, err := t.choosePath(rect)
	if err != nil {
		return err
	}
	if err := t.privatizePath(path); err != nil {
		return err
	}
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries, hentry{rect: rect, ref: ref})
	return t.adjustPath(path)
}

// Delete removes the record (rect, ref) from the current version; history
// keeps it. Returns false when no such record is current.
func (t *Tree) Delete(rect geom.Rect, ref uint64, time int64) (bool, error) {
	if err := t.advance(time); err != nil {
		return false, err
	}
	path, idx, err := t.findRecord(rect, ref)
	if err != nil || path == nil {
		return false, err
	}
	if err := t.privatizePath(path); err != nil {
		return false, err
	}
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.alive--
	return true, t.condensePath(path)
}

// choosePath descends the current tree by minimum area enlargement and
// returns the path in the tree's path scratch.
func (t *Tree) choosePath(rect geom.Rect) ([]*hnode, error) {
	t.path = t.path[:0]
	id := t.current().page
	for {
		n, err := t.nodes.ReadShared(id)
		if err != nil {
			return nil, err
		}
		t.path = append(t.path, n)
		if n.leaf {
			return t.path, nil
		}
		best := 0
		bestEnl, bestArea := 0.0, 0.0
		for i, e := range n.entries {
			enl := e.rect.Enlargement(rect)
			area := e.rect.Area()
			if i == 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		id = pagefile.PageID(n.entries[best].ref)
	}
}

// findRecord locates (rect, ref) in the current version and returns the
// path to its leaf, in the tree's path scratch, with the record's index;
// a nil path when no such record is current.
func (t *Tree) findRecord(rect geom.Rect, ref uint64) ([]*hnode, int, error) {
	t.path = t.path[:0]
	idx, found, err := t.findBelow(t.current().page, rect, ref)
	if err != nil || !found {
		return nil, 0, err
	}
	return t.path, idx, nil
}

// findBelow searches the subtree at id depth first, appending each node
// it enters to the path scratch and truncating it again on backtrack.
func (t *Tree) findBelow(id pagefile.PageID, rect geom.Rect, ref uint64) (int, bool, error) {
	n, err := t.nodes.ReadShared(id)
	if err != nil {
		return 0, false, err
	}
	t.path = append(t.path, n)
	if n.leaf {
		for i, e := range n.entries {
			if e.ref == ref && e.rect == rect {
				return i, true, nil
			}
		}
	} else {
		for _, e := range n.entries {
			if !e.rect.Contains(rect) {
				continue
			}
			if idx, found, err := t.findBelow(pagefile.PageID(e.ref), rect, ref); err != nil || found {
				return idx, found, err
			}
		}
	}
	t.path = t.path[:len(t.path)-1]
	return 0, false, nil
}

// privatizePath replaces, in place, every shared node on the path with
// a private copy (top-down, fixing child references) so the pending
// mutation only touches the current version. The new root is published
// to the version table.
func (t *Tree) privatizePath(path []*hnode) error {
	for i, n := range path {
		cp, err := t.privatize(n)
		if err != nil {
			return err
		}
		path[i] = cp
		if i == 0 {
			t.current().page = cp.id
			continue
		}
		if cp.id != n.id {
			// Point the (already private) parent at the copy.
			replaceChildRef(path[i-1], n.id, cp.id)
		}
	}
	return nil
}

func replaceChildRef(parent *hnode, old, new pagefile.PageID) {
	for i := range parent.entries {
		if pagefile.PageID(parent.entries[i].ref) == old {
			parent.entries[i].ref = uint64(new)
			return
		}
	}
}

// adjustPath writes the (private) path bottom-up, splitting overflowing
// nodes and keeping parent rectangles tight.
func (t *Tree) adjustPath(path []*hnode) error {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries) > t.opts.MaxEntries {
			sibling := t.splitNode(n)
			if err := t.nodes.Write(sibling); err != nil {
				return err
			}
			if i == 0 {
				if err := t.nodes.Write(n); err != nil {
					return err
				}
				root, err := t.newNode(false, []hentry{
					{rect: n.mbr(), ref: uint64(n.id)},
					{rect: sibling.mbr(), ref: uint64(sibling.id)},
				})
				if err != nil {
					return err
				}
				cur := t.current()
				cur.page = root.id
				cur.height++
				continue
			}
			parent := path[i-1]
			parent.entries = append(parent.entries, hentry{rect: sibling.mbr(), ref: uint64(sibling.id)})
		}
		if err := t.nodes.Write(n); err != nil {
			return err
		}
		if i > 0 {
			refreshChildRect(path[i-1], n)
		}
	}
	return nil
}

func refreshChildRect(parent, child *hnode) {
	for i := range parent.entries {
		if pagefile.PageID(parent.entries[i].ref) == child.id {
			parent.entries[i].rect = child.mbr()
			return
		}
	}
}

// splitNode splits an overflowing (private) node with the R* axis/index
// heuristic on 2D rectangles; n keeps group one, the returned fresh
// sibling gets group two.
func (t *Tree) splitNode(n *hnode) *hnode {
	g1, g2 := t.split.Split(n.entries, t.opts.MinEntries, 2)
	n.entries = slices.Clone(g1)
	sibling := &hnode{id: t.nodes.Store().Allocate(), leaf: n.leaf, entries: slices.Clone(g2)}
	t.fresh[sibling.id] = true
	return sibling
}

// condensePath handles underflow after a deletion: underflowing non-root
// nodes are dissolved and their entries reinserted; a single-child
// directory root is collapsed.
func (t *Tree) condensePath(path []*hnode) error {
	type orphan struct {
		entries []hentry
		leaf    bool
	}
	var orphans []orphan
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i]
		parent := path[i-1]
		if len(n.entries) < t.opts.MinEntries {
			removeChildEntry(parent, n.id)
			if len(n.entries) > 0 {
				orphans = append(orphans, orphan{entries: n.entries, leaf: n.leaf})
			}
			// n is private to this version; its page can be dropped.
			delete(t.fresh, n.id)
			if err := t.nodes.Free(n.id); err != nil {
				return err
			}
			continue
		}
		if err := t.nodes.Write(n); err != nil {
			return err
		}
		refreshChildRect(parent, n)
	}
	if err := t.nodes.Write(path[0]); err != nil {
		return err
	}

	// Reinsert orphans. Leaf orphans re-enter through the normal insert
	// machinery; directory orphans re-attach their subtrees by reinserting
	// the child entries at the correct height via insertSubtree.
	for _, o := range orphans {
		for _, e := range o.entries {
			if o.leaf {
				path, err := t.choosePath(e.rect)
				if err != nil {
					return err
				}
				if err := t.privatizePath(path); err != nil {
					return err
				}
				leaf := path[len(path)-1]
				leaf.entries = append(leaf.entries, e)
				if err := t.adjustPath(path); err != nil {
					return err
				}
				continue
			}
			if err := t.insertSubtree(e); err != nil {
				return err
			}
		}
	}

	// Collapse a single-child directory root.
	for {
		cur := t.current()
		root, err := t.nodes.ReadShared(cur.page)
		if err != nil {
			return err
		}
		if root.leaf || len(root.entries) != 1 {
			return nil
		}
		child := pagefile.PageID(root.entries[0].ref)
		if t.fresh[root.id] {
			delete(t.fresh, root.id)
			if err := t.nodes.Free(root.id); err != nil {
				return err
			}
		}
		cur.page = child
		cur.height--
	}
}

func removeChildEntry(parent *hnode, child pagefile.PageID) {
	for i := range parent.entries {
		if pagefile.PageID(parent.entries[i].ref) == child {
			parent.entries = append(parent.entries[:i], parent.entries[i+1:]...)
			return
		}
	}
}

// insertSubtree reattaches an orphaned subtree entry one level above the
// subtree's own height.
func (t *Tree) insertSubtree(e hentry) error {
	subHeight, err := t.heightOf(pagefile.PageID(e.ref))
	if err != nil {
		return err
	}
	cur := t.current()
	if cur.height <= subHeight {
		// The tree is not tall enough to hang the subtree under a node;
		// grow by making a new root holding the old root and the subtree.
		old, err := t.nodes.ReadShared(cur.page)
		if err != nil {
			return err
		}
		root, err := t.newNode(false, []hentry{
			{rect: old.mbr(), ref: uint64(old.id)},
			e,
		})
		if err != nil {
			return err
		}
		cur.page = root.id
		cur.height = subHeight + 1
		return nil
	}
	// Descend to level subHeight+1 (nodes whose children have the
	// subtree's height), choosing by enlargement.
	depth := cur.height - (subHeight + 1) // directory hops from the root
	t.path = t.path[:0]
	id := cur.page
	for lvl := 0; ; lvl++ {
		n, err := t.nodes.ReadShared(id)
		if err != nil {
			return err
		}
		t.path = append(t.path, n)
		if lvl == depth {
			break
		}
		best := 0
		bestEnl := 0.0
		for i, en := range n.entries {
			enl := en.rect.Enlargement(e.rect)
			if i == 0 || enl < bestEnl {
				best, bestEnl = i, enl
			}
		}
		id = pagefile.PageID(n.entries[best].ref)
	}
	if err := t.privatizePath(t.path); err != nil {
		return err
	}
	target := t.path[len(t.path)-1]
	target.entries = append(target.entries, e)
	return t.adjustPath(t.path)
}

// heightOf measures a subtree's height (leaf = 1).
func (t *Tree) heightOf(id pagefile.PageID) (int, error) {
	h := 1
	for {
		n, err := t.nodes.ReadShared(id)
		if err != nil {
			return 0, err
		}
		if n.leaf {
			return h, nil
		}
		h++
		id = pagefile.PageID(n.entries[0].ref)
	}
}
