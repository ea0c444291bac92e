package pprtree

import (
	"fmt"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// Insert adds a data record with the given rectangle and reference, alive
// from time onward. Updates must arrive in non-decreasing time order.
func (t *Tree) Insert(rect geom.Rect, ref uint64, time int64) error {
	if !rect.Valid() {
		return fmt.Errorf("pprtree: invalid rect %v", rect)
	}
	if err := t.advance(time); err != nil {
		return err
	}
	path, err := t.chooseLeafPath(rect)
	if err != nil {
		return err
	}
	t.size++
	t.alive++
	e := pentry{rect: rect, insertT: time, deleteT: geom.Now, ref: ref}
	return t.fixup(path, time, []pentry{e}, false)
}

// Delete logically deletes the alive record with the given rectangle and
// reference at time: the record remains visible for all earlier instants.
// Returns false when no such alive record exists.
func (t *Tree) Delete(rect geom.Rect, ref uint64, time int64) (bool, error) {
	if err := t.advance(time); err != nil {
		return false, err
	}
	path, idx, err := t.findAliveRecord(rect, ref)
	if err != nil || path == nil {
		return false, err
	}
	leaf := path[len(path)-1]
	leaf.entries[idx].deleteT = time
	leaf.nalive--
	t.untrackRecord(ref)
	t.alive--
	if err := t.fixup(path, time, nil, true); err != nil {
		return false, err
	}
	return true, nil
}

// chooseLeafPath descends the live tree picking, at each directory node,
// the alive child entry needing the least area enlargement to cover rect
// (ties broken by smaller area). Returns the live nodes root-first, in the
// tree's path scratch: valid until the next descent. The entry picked in
// each directory node is left in t.slots, for fixup's refresh.
func (t *Tree) chooseLeafPath(rect geom.Rect) ([]*pnode, error) {
	t.path = t.path[:0]
	t.slots = t.slots[:0]
	id := t.liveRoot().page
	for {
		n, err := t.nodes.Read(id)
		if err != nil {
			return nil, err
		}
		t.path = append(t.path, n)
		if n.leaf {
			return t.path, nil
		}
		best := -1
		bestEnl, bestArea := 0.0, 0.0
		for i, e := range n.entries {
			if !e.alive() {
				continue
			}
			area := e.rect.Area()
			enl := e.rect.Union(rect).Area() - area // Enlargement, with the area it subtracts kept
			if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("pprtree: live directory node %d has no alive entries", n.id)
		}
		t.slots = append(t.slots, int32(best))
		id = pagefile.PageID(n.entries[best].ref)
	}
}

// findAliveRecord locates the leaf path holding the alive record (rect,
// ref) in the live tree, returning a nil path when absent. Like
// chooseLeafPath it returns the tree's path scratch, valid until the next
// descent. It leaves no slots: fixup scans for the entries it refreshes.
func (t *Tree) findAliveRecord(rect geom.Rect, ref uint64) ([]*pnode, int, error) {
	t.slots = t.slots[:0]
	if path, idx := t.locateAliveRecord(rect, ref); path != nil {
		return path, idx, nil
	}
	t.path = t.path[:0]
	idx, found, err := t.findBelow(t.liveRoot().page, rect, ref)
	if err != nil || !found {
		return nil, 0, err
	}
	return t.path, idx, nil
}

// findBelow searches the live subtree under page id depth-first, keeping
// the nodes from the root to the current one on t.path; when it finds the
// record it leaves the path standing and returns the record's index in
// the leaf.
func (t *Tree) findBelow(id pagefile.PageID, rect geom.Rect, ref uint64) (int, bool, error) {
	n, err := t.nodes.Read(id)
	if err != nil {
		return 0, false, err
	}
	t.path = append(t.path, n)
	if n.leaf {
		if i := n.aliveSlot(rect, ref); i != -1 {
			return i, true, nil
		}
	} else {
		for _, e := range n.entries {
			if !e.alive() || !e.rect.Contains(rect) {
				continue
			}
			idx, found, err := t.findBelow(pagefile.PageID(e.ref), rect, ref)
			if err != nil || found {
				return idx, found, err
			}
		}
	}
	t.path = t.path[:len(t.path)-1]
	return 0, false, nil
}

// fixup applies pending additions and structural repairs bottom-up along a
// live path. adds are entries to insert into the deepest node;
// mayUnderflow signals that alive counts below the path may have dropped
// (deletion or merge), so weak version underflow must be checked.
func (t *Tree) fixup(path []*pnode, time int64, adds []pentry, mayUnderflow bool) error {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries)+len(adds) > t.opts.MaxEntries {
			var err error
			adds, mayUnderflow, err = t.versionSplit(path, i, time, adds, mayUnderflow)
			if err != nil {
				return err
			}
			continue
		}
		n.appendEntries(adds)
		t.trackBackRefs(n, adds)
		t.trackLocation(n, adds)
		adds = nil
		if i > 0 && mayUnderflow && int(n.nalive) < t.opts.weakMin() {
			var err error
			adds, mayUnderflow, err = t.versionSplit(path, i, time, nil, mayUnderflow)
			if err != nil {
				return err
			}
			continue
		}
		if err := t.nodes.Write(n); err != nil {
			return err
		}
		if i > 0 {
			slot := -1
			if i-1 < len(t.slots) {
				slot = int(t.slots[i-1])
			}
			if err := refreshParentRect(path[i-1], n, slot); err != nil {
				return err
			}
		}
	}
	return t.maybeShrinkRoot(time)
}

// versionSplit kills node path[i]: its alive records (plus the pending
// adds) are copied into one or two fresh nodes, applying the strong
// version overflow (key split) and strong version underflow (sibling
// merge) rules. The dead node's entry in the parent is closed in place;
// the directory entries for the fresh nodes are returned as the pending
// adds for the parent level, together with whether the parent's alive
// count net-decreased (merge) so weak underflow must be checked there.
func (t *Tree) versionSplit(path []*pnode, i int, time int64, adds []pentry, mayUnderflow bool) ([]pentry, bool, error) {
	n := path[i]
	// The records being moved are gathered in the tree's scratch; newNode
	// copies what it is given.
	t.copies = t.closeAndCopyAlive(t.copies[:0], n, time)
	t.copies = append(t.copies, adds...)
	if err := t.nodes.Write(n); err != nil {
		return nil, false, err
	}

	isRoot := i == 0
	var parent *pnode
	if !isRoot {
		parent = path[i-1]
		if err := closeChildEntry(parent, n.id, time); err != nil {
			return nil, false, err
		}
	}

	merged := false
	if !isRoot && len(t.copies) <= t.opts.svuMin() {
		var err error
		merged, err = t.mergeSibling(parent, n.id, time)
		if err != nil {
			return nil, false, err
		}
	}
	copies := t.copies

	var fresh []*pnode
	switch {
	case len(copies) == 0:
		// The subtree died entirely; nothing replaces it.
	case len(copies) >= t.opts.svoMax() || len(copies) > t.opts.MaxEntries:
		g1, g2 := t.ks.Split(copies, t.keySplitMin(len(copies)), 2)
		fresh = []*pnode{t.newNode(n.leaf, time, g1), t.newNode(n.leaf, time, g2)}
	default:
		fresh = []*pnode{t.newNode(n.leaf, time, copies)}
	}
	for _, f := range fresh {
		if err := t.nodes.Write(f); err != nil {
			return nil, false, err
		}
	}

	newEntries := make([]pentry, len(fresh))
	for j, f := range fresh {
		newEntries[j] = pentry{rect: f.mbr, insertT: time, deleteT: geom.Now, ref: uint64(f.id)}
	}

	if isRoot {
		return nil, false, t.replaceRoot(n, fresh, newEntries, time)
	}
	// Parent alive delta: -1 for n, -1 if merged, +len(newEntries).
	netLoss := 1 + btoi(merged) - len(newEntries)
	return newEntries, mayUnderflow || netLoss > 0, nil
}

// closeAndCopyAlive closes every alive record of n at time, marks the node
// dead, and appends to dst copies of those records alive from time onward.
func (t *Tree) closeAndCopyAlive(dst []pentry, n *pnode, time int64) []pentry {
	for j := range n.entries {
		if n.entries[j].alive() {
			c := n.entries[j]
			c.insertT = time
			dst = append(dst, c)
			n.entries[j].deleteT = time
			if n.leaf {
				t.untrackRecord(c.ref)
			}
		}
	}
	n.nalive = 0
	n.endT = time
	return dst
}

// mergeSibling implements the strong version underflow rule: pick the
// alive sibling (another alive child of parent) whose rectangle is closest
// to the dying node's records (t.copies), version-split it too, and append
// its copies to them. Returns false when no sibling exists.
func (t *Tree) mergeSibling(parent *pnode, except pagefile.PageID, time int64) (bool, error) {
	mbr := geom.EmptyRect()
	for _, c := range t.copies {
		mbr = mbr.Union(c.rect)
	}
	best := -1
	bestEnl := 0.0
	for j, e := range parent.entries {
		if !e.alive() || pagefile.PageID(e.ref) == except {
			continue
		}
		enl := e.rect.Enlargement(mbr)
		if best == -1 || enl < bestEnl {
			best, bestEnl = j, enl
		}
	}
	if best == -1 {
		return false, nil
	}
	sibID := pagefile.PageID(parent.entries[best].ref)
	sib, err := t.nodes.Read(sibID)
	if err != nil {
		return false, err
	}
	t.copies = t.closeAndCopyAlive(t.copies, sib, time)
	if err := t.nodes.Write(sib); err != nil {
		return false, err
	}
	if err := closeChildEntry(parent, sibID, time); err != nil {
		return false, err
	}
	return true, nil
}

// replaceRoot installs the fresh node(s) produced by a root version split:
// one fresh node continues at the same height; two get a new directory
// root above them; zero resets the tree to an empty leaf.
func (t *Tree) replaceRoot(old *pnode, fresh []*pnode, newEntries []pentry, time int64) error {
	cur := t.liveRoot()
	height := cur.height
	var newPage pagefile.PageID
	switch len(fresh) {
	case 0:
		empty := t.newNode(true, time, nil)
		if err := t.nodes.Write(empty); err != nil {
			return err
		}
		newPage, height = empty.id, 1
	case 1:
		newPage = fresh[0].id
	default:
		root := t.newNode(false, time, newEntries)
		if err := t.nodes.Write(root); err != nil {
			return err
		}
		newPage, height = root.id, height+1
	}
	t.closeLiveRoot(time)
	t.roots = append(t.roots, rootSpan{page: newPage, start: time, end: geom.Now, height: height})
	return nil
}

// closeLiveRoot ends the live root's span at time. A span that would become
// empty (opened at the same instant) is dropped so the log stays a tiling.
func (t *Tree) closeLiveRoot(time int64) {
	cur := t.liveRoot()
	if cur.start == time {
		t.roots = t.roots[:len(t.roots)-1]
		return
	}
	cur.end = time
}

// maybeShrinkRoot demotes the live root while it is a directory node with
// a single alive child: the child becomes the live root for times >= time.
func (t *Tree) maybeShrinkRoot(time int64) error {
	for {
		cur := t.liveRoot()
		if cur.height == 1 {
			return nil
		}
		root, err := t.nodes.Read(cur.page)
		if err != nil {
			return err
		}
		if root.nalive != 1 {
			return nil
		}
		var child pagefile.PageID
		for j := range root.entries {
			if root.entries[j].alive() {
				root.entries[j].deleteT = time
				child = pagefile.PageID(root.entries[j].ref)
				break
			}
		}
		root.nalive = 0
		root.endT = time
		if err := t.nodes.Write(root); err != nil {
			return err
		}
		height := cur.height - 1
		t.closeLiveRoot(time)
		t.roots = append(t.roots, rootSpan{page: child, start: time, end: geom.Now, height: height})
	}
}

// refreshParentRect keeps the parent's alive directory entry for child n
// covering everything the child ever stored. slot is the parent's entry
// the descent went through, or -1 when the path carries none (a
// delete's); it is taken when it still names an alive entry for n — a
// live node has exactly one — and the entry is scanned for otherwise.
func refreshParentRect(parent, n *pnode, slot int) error {
	if slot < 0 || slot >= len(parent.entries) || !parent.entries[slot].alive() ||
		pagefile.PageID(parent.entries[slot].ref) != n.id {
		if slot = aliveChildSlot(parent, n.id); slot == -1 {
			return fmt.Errorf("pprtree: parent %d has no alive entry for child %d", parent.id, n.id)
		}
	}
	parent.entries[slot].rect = parent.entries[slot].rect.Union(n.mbr)
	parent.mbr = parent.mbr.Union(n.mbr)
	return nil
}

func closeChildEntry(parent *pnode, child pagefile.PageID, time int64) error {
	j := aliveChildSlot(parent, child)
	if j == -1 {
		return fmt.Errorf("pprtree: parent %d has no alive entry for child %d", parent.id, child)
	}
	parent.entries[j].deleteT = time
	parent.nalive--
	return nil
}

// aliveChildSlot is the index of parent's alive entry for child, or -1.
func aliveChildSlot(parent *pnode, child pagefile.PageID) int {
	for j := range parent.entries {
		if parent.entries[j].alive() && pagefile.PageID(parent.entries[j].ref) == child {
			return j
		}
	}
	return -1
}

// newNode allocates the page of a fresh live node holding a copy of
// entries, with room for everything the node can come to hold, and
// registers a directory node's back-references and the entries' place in
// the bracket's locator.
func (t *Tree) newNode(leaf bool, time int64, entries []pentry) *pnode {
	own := append(make([]pentry, 0, max(t.opts.MaxEntries, len(entries))), entries...)
	n := &pnode{id: t.nodes.Store().Allocate(), leaf: leaf, startT: time, endT: geom.Now, entries: own}
	n.mbr = n.mbrAll()
	n.nalive = int32(n.aliveCount())
	t.trackBackRefs(n, own)
	t.trackLocation(n, own)
	return n
}

// keySplitMin picks the minimum group size for a key split: at least the
// weak minimum so neither group underflows immediately, and at least 40%
// of the records for spatial quality. The split caps it at half the
// records, so both groups fit.
func (t *Tree) keySplitMin(n int) int {
	return max(n*2/5, t.opts.weakMin())
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
