package pprtree

import (
	"fmt"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// CheckReport summarises a full structural validation walk.
type CheckReport struct {
	Nodes        int // distinct reachable pages
	LiveNodes    int
	DeadNodes    int
	LeafRecords  int // leaf entries including version copies
	WeakviOK     int // non-root live nodes meeting the weak minimum
	WeakviGaps   int // non-root live nodes below the weak minimum (tolerated edge cases)
	MaxLeafDepth int
}

// Validate walks every root and checks the structural invariants of the
// multi-version tree:
//
//   - the root log tiles time contiguously and ends with the live root;
//   - no node exceeds the physical capacity;
//   - entry lifetimes are valid and lie within their node's lifetime
//     (empty lifetimes are allowed: they arise when several updates share
//     one timestamp);
//   - alive entries appear only in live nodes;
//   - every directory entry's lifetime is covered by its child's, and its
//     rectangle covers every child record inserted before the entry closed;
//   - within each root span, all leaves sit at the depth the root log
//     records for that span;
//   - version copies of the same data record never overlap in time;
//   - the cached state agrees with the entries it is derived from: the
//     running MBR of every node resident in an open bracket equals the
//     union of its entries' rectangles and its alive count the number of
//     its alive entries, and in online mode every
//     directory entry's child has the node among its back-references
//     (the sets may over-cover, never miss); and inside a bracket, the
//     record locator counts exactly the alive copies of
//     every ref the live tree holds and names the leaf of a ref with one
//     (so no entry outlives its record or its leaf), and no parent link
//     points anywhere but at the node holding the child's alive entry.
//
// Inside a bracket it walks the resident nodes, not their stale pages. It
// returns a report of tree-shape statistics on success.
func (t *Tree) Validate() (CheckReport, error) {
	var rep CheckReport
	if err := t.validateRootLog(); err != nil {
		return rep, err
	}

	type recSpan struct {
		iv geom.Interval
	}
	recIntervals := make(map[uint64][]recSpan)
	seen := make(map[pagefile.PageID]bool)
	aliveCopies := make(map[uint64]int) // per ref, for the locator
	var located map[uint64]recLoc       // the locator is read only inside a bracket
	if t.nodes.InBracket() {
		located = t.located
	}

	var walk func(id pagefile.PageID, depth, wantLeafDepth int) error
	walk = func(id pagefile.PageID, depth, wantLeafDepth int) error {
		n, err := t.nodes.ReadShared(id)
		if err != nil {
			return err
		}
		first := !seen[id]
		if first {
			seen[id] = true
			rep.Nodes++
			if n.live() {
				rep.LiveNodes++
			} else {
				rep.DeadNodes++
			}
			if len(n.entries) > t.opts.MaxEntries {
				return fmt.Errorf("pprtree: node %d has %d entries > capacity %d", id, len(n.entries), t.opts.MaxEntries)
			}
			if n.startT > n.endT {
				return fmt.Errorf("pprtree: node %d has inverted lifetime [%d,%d)", id, n.startT, n.endT)
			}
			_, resident := t.nodes.Resident(id)
			if resident && n.mbr != n.mbrAll() {
				return fmt.Errorf("pprtree: resident node %d carries MBR %v, its entries span %v", id, n.mbr, n.mbrAll())
			}
			if resident && int(n.nalive) != n.aliveCount() {
				return fmt.Errorf("pprtree: resident node %d counts %d alive entries, it holds %d", id, n.nalive, n.aliveCount())
			}
		}
		if n.leaf {
			if depth != wantLeafDepth {
				return fmt.Errorf("pprtree: leaf %d at depth %d, root span says %d", id, depth, wantLeafDepth)
			}
			if depth > rep.MaxLeafDepth {
				rep.MaxLeafDepth = depth
			}
		}
		if !first {
			return nil // immutable subtree already checked
		}
		for _, e := range n.entries {
			if e.insertT > e.deleteT {
				return fmt.Errorf("pprtree: node %d entry has inverted lifetime [%d,%d)", id, e.insertT, e.deleteT)
			}
			if e.insertT < n.startT || (e.deleteT != geom.Now && e.deleteT > n.endT) {
				return fmt.Errorf("pprtree: node %d [%d,%d) entry lifetime [%d,%d) escapes node",
					id, n.startT, n.endT, e.insertT, e.deleteT)
			}
			if e.alive() && !n.live() {
				return fmt.Errorf("pprtree: dead node %d holds alive entry", id)
			}
			if n.leaf {
				rep.LeafRecords++
				if e.insertT < e.deleteT {
					recIntervals[e.ref] = append(recIntervals[e.ref], recSpan{iv: e.interval()})
				}
				if located != nil && e.alive() {
					aliveCopies[e.ref]++
					if l := located[e.ref]; l.leaf != nil && l.leaf != n {
						return fmt.Errorf("pprtree: locator places record %d in leaf %d, leaf %d holds it", e.ref, l.leaf.id, id)
					}
				}
				continue
			}
			child, err := t.nodes.ReadShared(pagefile.PageID(e.ref))
			if err != nil {
				return err
			}
			if _, ok := t.backRefs[child.id][id]; !ok && t.backRefs != nil {
				return fmt.Errorf("pprtree: node %d references child %d, which has no back-reference to it", id, child.id)
			}
			if located != nil && e.alive() && child.parent != nil && child.parent != n {
				return fmt.Errorf("pprtree: node %d holds the alive entry of child %d, whose parent link names node %d", id, child.id, child.parent.id)
			}
			if e.insertT < child.startT || e.deleteT > child.endT {
				return fmt.Errorf("pprtree: node %d entry [%d,%d) not covered by child %d lifetime [%d,%d)",
					id, e.insertT, e.deleteT, child.id, child.startT, child.endT)
			}
			for _, ce := range child.entries {
				if ce.insertT >= e.deleteT {
					continue // inserted after this entry closed; invisible through it
				}
				if !child.leaf && !e.alive() && ce.deleteT >= e.deleteT {
					// A directory record still open when this entry closed
					// keeps growing with later insertions — also ones at
					// the very instant e.deleteT, when several updates share
					// a timestamp and the record itself closes later in that
					// instant; only its state when the entry closed had to
					// be covered, which is unrecoverable.
					continue
				}
				if !e.rect.Contains(ce.rect) {
					return fmt.Errorf("pprtree: node %d entry rect %v misses child %d record %v (inserted %d, entry closes %d)",
						id, e.rect, child.id, ce.rect, ce.insertT, e.deleteT)
				}
			}
			if err := walk(pagefile.PageID(e.ref), depth+1, wantLeafDepth); err != nil {
				return err
			}
		}
		if n.live() && len(n.entries) > 0 {
			if a := n.aliveCount(); a >= t.opts.weakMin() {
				rep.WeakviOK++
			} else {
				rep.WeakviGaps++
			}
		}
		return nil
	}

	for i := range t.roots {
		r := &t.roots[i]
		if err := walk(r.page, 1, r.height); err != nil {
			return rep, err
		}
	}

	for ref, l := range located {
		if aliveCopies[ref] != l.copies {
			return rep, fmt.Errorf("pprtree: locator counts %d alive copies of record %d, the live tree holds %d", l.copies, ref, aliveCopies[ref])
		}
	}
	if len(aliveCopies) > len(located) {
		return rep, fmt.Errorf("pprtree: %d refs are alive in the live tree, the locator knows %d", len(aliveCopies), len(located))
	}

	// Version copies of one record must not overlap in time.
	for ref, spans := range recIntervals {
		for i := 0; i < len(spans); i++ {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].iv.Overlaps(spans[j].iv) {
					return rep, fmt.Errorf("pprtree: record %d has overlapping version copies %v and %v",
						ref, spans[i].iv, spans[j].iv)
				}
			}
		}
	}
	return rep, nil
}

func (t *Tree) validateRootLog() error {
	if len(t.roots) == 0 {
		return fmt.Errorf("pprtree: empty root log")
	}
	for i := range t.roots {
		r := &t.roots[i]
		if r.start >= r.end {
			return fmt.Errorf("pprtree: root span %d is empty: [%d,%d)", i, r.start, r.end)
		}
		if i > 0 && t.roots[i-1].end != r.start {
			return fmt.Errorf("pprtree: root log gap between span %d (ends %d) and %d (starts %d)",
				i-1, t.roots[i-1].end, i, r.start)
		}
		// A tree of height h has a page on each of its h levels.
		if r.height < 1 || r.height > t.nodes.Store().NumPages() {
			return fmt.Errorf("pprtree: root span %d has height %d, want 1..%d (the store's pages)", i, r.height, t.nodes.Store().NumPages())
		}
	}
	if last := t.roots[len(t.roots)-1]; last.end != geom.Now {
		return fmt.Errorf("pprtree: last root span ends at %d, want open", last.end)
	}
	return nil
}
