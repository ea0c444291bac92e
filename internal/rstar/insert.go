package rstar

import (
	"fmt"
	"slices"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// Insert adds a data entry. The box's time axis should already be scaled to
// match the spatial axes (see geom.Box3FromBox); the tree itself is purely
// geometric. A box that is inverted or holds a NaN is refused: it could
// never match a query, and a node decoder refuses it on the page.
func (t *Tree) Insert(b geom.Box3, ref uint64) error {
	if !b.Ordered() {
		return fmt.Errorf("rstar: cannot insert box %v: %w", b, geom.ErrInvertedBox)
	}
	t.size++
	clear(t.reinserted)
	return t.insertAtLevel(entry{box: b, ref: ref}, 1)
}

// insertAtLevel places e into a node at the given level (1 = leaf level,
// counting from the bottom; this numbering is stable across root splits).
func (t *Tree) insertAtLevel(e entry, level int) error {
	path, err := t.choosePath(e.box, level)
	if err != nil {
		return err
	}
	target := path[len(path)-1]
	target.entries = append(target.entries, e)
	return t.adjustPath(path)
}

// choosePath descends from the root to a node at targetLevel using the R*
// ChooseSubtree rule and returns the nodes along the way (root first), in
// the tree's path scratch: valid until the next descent.
func (t *Tree) choosePath(b geom.Box3, targetLevel int) ([]*node, error) {
	if targetLevel > t.height {
		return nil, fmt.Errorf("rstar: target level %d above root level %d", targetLevel, t.height)
	}
	t.path = t.path[:0]
	id := t.root
	for level := t.height; ; level-- {
		n, err := t.nodes.Read(id)
		if err != nil {
			return nil, err
		}
		t.path = append(t.path, n)
		if level == targetLevel {
			return t.path, nil
		}
		id = pagefile.PageID(n.entries[t.chooseSubtree(n, b, level-1 == 1)].ref)
	}
}

// chooseSubtree picks the child index of n to descend into for box b.
// When the children are leaves, R* minimises overlap enlargement (ties:
// volume enlargement, then volume); otherwise volume enlargement (ties:
// volume).
//
// The overlap enlargement of entry i sums, over its siblings, the overlap
// the enlarged box has with each minus the overlap the box has. The
// enlarged box contains the box, so each term is ≥ 0 in floating point
// too, and exactly +0 where the enlarged box misses the sibling: those
// terms are skipped. The running sum never falls, so once it exceeds the
// best candidate's, i can win neither on it nor on a tie and its loop
// stops. The pick is the full sum's, bit for bit.
func (t *Tree) chooseSubtree(n *node, b geom.Box3, childrenAreLeaves bool) int {
	best := 0
	if childrenAreLeaves {
		bestOverlap, bestEnl, bestVol := 0.0, 0.0, 0.0
		for i, e := range n.entries {
			enlarged := e.box.Union(b)
			overlapDelta := 0.0
			for j := range n.entries {
				if j == i {
					continue
				}
				o := &n.entries[j].box
				grown := enlarged.Overlap(*o)
				if grown == 0 {
					continue
				}
				if overlapDelta += grown - e.box.Overlap(*o); i > 0 && overlapDelta > bestOverlap {
					break
				}
			}
			vol := e.box.Volume()
			enl := enlarged.Volume() - vol
			if i == 0 || overlapDelta < bestOverlap ||
				(overlapDelta == bestOverlap && (enl < bestEnl ||
					(enl == bestEnl && vol < bestVol))) {
				best, bestOverlap, bestEnl, bestVol = i, overlapDelta, enl, vol
			}
		}
		return best
	}
	bestEnl, bestVol := 0.0, 0.0
	for i, e := range n.entries {
		vol := e.box.Volume()
		enl := e.box.Union(b).Volume() - vol // the volume enlargement, with the volume it subtracts kept
		if i == 0 || enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = i, enl, vol
		}
	}
	return best
}

// adjustPath writes back the modified nodes bottom-up, handling overflows
// by forced reinsertion or node splits and keeping parent boxes tight.
// The reinsertions it queues run last, when path is no longer read, since
// each descends into the tree's path scratch again.
func (t *Tree) adjustPath(path []*node) error {
	startHeight := t.height
	type pending struct {
		e     entry
		level int
	}
	var reinserts []pending

	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		level := startHeight - i

		if len(n.entries) > t.opts.MaxEntries {
			for len(t.reinserted) <= level {
				t.reinserted = append(t.reinserted, false)
			}
			if i > 0 && !t.reinserted[level] {
				// Forced reinsertion: evict the ReinsertCount entries whose
				// centers are farthest from the node's center, then re-add
				// them closest-first once the tree has settled.
				t.reinserted[level] = true
				removed := t.evictFarthest(n)
				for _, e := range removed {
					reinserts = append(reinserts, pending{e: e, level: level})
				}
			} else {
				sibling := t.splitNode(n)
				if i == 0 {
					// Root split: grow the tree.
					if err := t.nodes.Write(n); err != nil {
						return err
					}
					if err := t.nodes.Write(sibling); err != nil {
						return err
					}
					root := &node{id: t.nodes.Store().Allocate(), leaf: false}
					root.entries = []entry{
						{box: n.mbr(), ref: uint64(n.id)},
						{box: sibling.mbr(), ref: uint64(sibling.id)},
					}
					if err := t.nodes.Write(root); err != nil {
						return err
					}
					t.root = root.id
					t.height++
					continue
				}
				if err := t.nodes.Write(sibling); err != nil {
					return err
				}
				parent := path[i-1]
				parent.entries = append(parent.entries, entry{box: sibling.mbr(), ref: uint64(sibling.id)})
			}
		}

		if err := t.nodes.Write(n); err != nil {
			return err
		}
		if i > 0 {
			if err := updateChildBox(path[i-1], n); err != nil {
				return err
			}
		}
	}

	for _, p := range reinserts {
		if err := t.insertAtLevel(p.e, p.level); err != nil {
			return err
		}
	}
	return nil
}

// splitNode performs the R* split of an overflowing node. The node keeps
// the first group; a freshly allocated sibling receives the second. The
// sibling is returned unwritten.
func (t *Tree) splitNode(n *node) *node {
	g1, g2 := t.split.Split(n.entries, t.opts.MinEntries, 3)
	n.entries = slices.Clone(g1)
	return &node{id: t.nodes.Store().Allocate(), leaf: n.leaf, entries: slices.Clone(g2)}
}

// evictFarthest removes the ReinsertCount entries whose centers are
// farthest from the node MBR's center and returns them ordered
// closest-first ("close reinsert", the variant R* found best).
func (t *Tree) evictFarthest(n *node) []entry {
	center := n.mbr().Center()
	centerBox := geom.Box3{Min: center, Max: center}
	slices.SortStableFunc(n.entries, func(a, b entry) int {
		da, db := a.box.CenterDistance2(centerBox), b.box.CenterDistance2(centerBox)
		switch {
		case da < db:
			return -1
		case db < da:
			return 1
		}
		return 0
	})
	keep := len(n.entries) - t.opts.ReinsertCount
	removed := make([]entry, t.opts.ReinsertCount)
	copy(removed, n.entries[keep:])
	n.entries = n.entries[:keep]
	return removed
}

// updateChildBox refreshes the parent's entry box for child n.
func updateChildBox(parent, n *node) error {
	for i := range parent.entries {
		if pagefile.PageID(parent.entries[i].ref) == n.id {
			parent.entries[i].box = n.mbr()
			return nil
		}
	}
	return fmt.Errorf("rstar: parent %d has no entry for child %d", parent.id, n.id)
}
