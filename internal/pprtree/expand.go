package pprtree

import (
	"fmt"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// EnableExpansion switches the tree into online mode: it starts tracking,
// for every node, the set of directory pages that ever held an entry for
// it, which ExpandAlive needs to keep all routing rectangles consistent
// when an alive record's rectangle grows. Must be called on an empty tree
// (back references cannot be reconstructed retroactively).
//
// This supports the paper's future-work "on-line version of the problem":
// a streaming object keeps one open record per current lifetime piece,
// and the record's rectangle grows as the object moves.
func (t *Tree) EnableExpansion() error {
	if t.size != 0 {
		return fmt.Errorf("pprtree: EnableExpansion requires an empty tree (have %d records)", t.size)
	}
	t.backRefs = make(map[pagefile.PageID]map[pagefile.PageID]struct{})
	return nil
}

// trackBackRefs records directory node n as a parent of the children its
// newly added entries reference.
func (t *Tree) trackBackRefs(n *pnode, added []pentry) {
	if t.backRefs == nil || n.leaf {
		return
	}
	for _, e := range added {
		child := pagefile.PageID(e.ref)
		set := t.backRefs[child]
		if set == nil {
			set = make(map[pagefile.PageID]struct{}, 2)
			t.backRefs[child] = set
		}
		set[n.id] = struct{}{}
	}
}

// ExpandAlive grows the rectangle of the alive record (oldRect, ref) to
// also cover add, updating every directory entry — live or historical —
// that can route a query to the record, so that rectangle-based pruning
// never produces false negatives. Rectangles only ever grow, so past
// query results gain at most false positives (the standard conservative
// MBR semantics: a record's rectangle is its whole-piece MBR).
//
// Requires EnableExpansion. Time must be non-decreasing like all updates.
func (t *Tree) ExpandAlive(oldRect geom.Rect, ref uint64, add geom.Rect, time int64) error {
	if t.backRefs == nil {
		return fmt.Errorf("pprtree: ExpandAlive requires EnableExpansion before any inserts")
	}
	if !add.Valid() {
		return fmt.Errorf("pprtree: invalid expansion rect %v", add)
	}
	if err := t.advance(time); err != nil {
		return err
	}
	path, idx, err := t.findAliveRecord(oldRect, ref)
	if err != nil {
		return err
	}
	if path == nil {
		return fmt.Errorf("pprtree: no alive record (%v, %d) to expand", oldRect, ref)
	}
	leaf := path[len(path)-1]
	grown := leaf.entries[idx].rect.Union(add)
	if grown == leaf.entries[idx].rect {
		return nil // nothing to do
	}
	leaf.entries[idx].rect = grown
	leaf.mbr = leaf.mbr.Union(grown)
	if err := t.nodes.Write(leaf); err != nil {
		return err
	}
	return t.propagateGrowth(leaf.id, grown)
}

// growthStep is one node whose routing entries must come to contain rect.
type growthStep struct {
	child pagefile.PageID
	rect  geom.Rect
}

// propagateGrowth walks the parent back-references breadth-first,
// enlarging every entry that points at a grown child until all routing
// rectangles contain the grown region again. Every parent costs one
// request of the pool, resident nodes aside; a historical parent is
// decoded only when its image holds an entry to enlarge (growthNeedsNode).
func (t *Tree) propagateGrowth(child pagefile.PageID, grown geom.Rect) error {
	t.growth = append(t.growth[:0], growthStep{child: child, rect: grown})
	for head := 0; head < len(t.growth); head++ {
		w := t.growth[head]
		for parentID := range t.backRefs[w.child] {
			parent, ok := t.nodes.Resident(parentID)
			if !ok {
				data, err := t.nodes.Buffer().Read(parentID)
				if err != nil {
					return err
				}
				if !growthNeedsNode(data, w.child, w.rect) {
					continue
				}
				if parent, err = t.nodes.Parse(parentID, data); err != nil {
					return err
				}
			}
			changed := false
			for i := range parent.entries {
				e := &parent.entries[i]
				if pagefile.PageID(e.ref) != w.child || e.rect.Contains(w.rect) {
					continue
				}
				e.rect = e.rect.Union(w.rect)
				parent.mbr = parent.mbr.Union(w.rect)
				changed = true
			}
			if changed {
				if err := t.nodes.Write(parent); err != nil {
					return err
				}
				t.growth = append(t.growth, growthStep{child: parentID, rect: w.rect})
			}
		}
	}
	return nil
}
