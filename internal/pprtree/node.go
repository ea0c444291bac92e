// Package pprtree implements the Partially Persistent R-Tree of the paper
// (§II-B, after Kumar/Tsotras/Faloutsos and the MVB-tree of Becker et al.):
// a multi-version R-tree that logically maintains one 2-dimensional R-tree
// per time instant while using storage linear in the number of updates.
//
// Every leaf and directory record carries insertion-time and deletion-time
// fields. Updates apply only to the current (live) state; past states are
// immutable. A node dies by version split: its alive records are copied to
// a fresh node and the old node is closed. Version splits keep the records
// alive at any instant clustered in few nodes, which is what makes
// snapshot queries behave as if an ephemeral R-tree existed for that
// instant. Strong version overflow (P_svo) triggers an additional key
// (spatial) split of the copy, strong/weak version underflow (P_svu,
// P_version) a merge with a sibling, exactly as in the paper's setup.
package pprtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"stindex/internal/geom"
	"stindex/internal/nodes"
	"stindex/internal/pagefile"
)

// pentry is one record of a PPR-tree node: a spatial rectangle, the record
// lifetime [insertT, deleteT), and a reference — child page id in directory
// nodes, opaque data id in leaves. A record with deleteT == geom.Now is
// alive.
type pentry struct {
	rect    geom.Rect
	insertT int64
	deleteT int64
	ref     uint64
}

func (e pentry) Box() geom.Rect       { return e.rect }
func (e pentry) aliveAt(t int64) bool { return e.insertT <= t && t < e.deleteT }
func (e pentry) alive() bool          { return e.deleteT == geom.Now }
func (e pentry) interval() geom.Interval {
	return geom.Interval{Start: e.insertT, End: e.deleteT}
}

// pnode is the decoded form of one PPR-tree page. A node is live while
// endT == geom.Now; dead nodes are immutable history.
type pnode struct {
	id      pagefile.PageID
	leaf    bool
	startT  int64
	endT    int64
	entries []pentry
	// mbr is the running union of every entry's rectangle on the live
	// nodes the update path holds (prepare, newNode): entries are
	// append-only and rectangles only grow, so it is kept by unioning in
	// each appended or grown rectangle. Nothing reads it on a dead node or
	// on one decoded for queries, and it is not maintained there.
	mbr geom.Rect
	// nalive counts the alive entries under the same rule as mbr: set
	// where a live node is decoded for an update or created, raised by
	// appendEntries and lowered where an entry closes (Delete,
	// closeAndCopyAlive, maybeShrinkRoot, closeChildEntry). An int32
	// keeps the node at 96 bytes.
	nalive int32
	// parent is the resident directory node holding this node's alive
	// entry, kept while the bracket keeps a record locator (locate.go).
	parent *pnode
}

func (n *pnode) live() bool { return n.endT == geom.Now }

// prepare sets the running MBR and alive count of a live node parsed for
// an update.
func (n *pnode) prepare() {
	n.mbr = n.mbrAll()
	n.nalive = int32(n.aliveCount())
}

func (n *pnode) PageID() pagefile.PageID { return n.id }
func (n *pnode) Len() int                { return len(n.entries) }

// aliveCount recounts the currently-alive records. The update path reads
// n.nalive instead; this is what n.nalive starts from and what Validate
// holds it against.
func (n *pnode) aliveCount() int {
	c := 0
	for _, e := range n.entries {
		if e.alive() {
			c++
		}
	}
	return c
}

// aliveSlot returns the index of the first alive record (rect, ref) of a
// leaf, or -1. It tests the ref first and in place: nearly every entry
// fails there, on one word, without being copied out of the slice.
func (n *pnode) aliveSlot(rect geom.Rect, ref uint64) int {
	for i := range n.entries {
		if e := &n.entries[i]; e.ref == ref && e.alive() && e.rect == rect {
			return i
		}
	}
	return -1
}

// mbrAll returns the union of every record's rectangle, dead or alive —
// exactly what the parent's directory record for this node must cover.
// The update path reads n.mbr instead; this is what n.mbr starts from and
// what Validate holds it against.
func (n *pnode) mbrAll() geom.Rect {
	r := geom.EmptyRect()
	for _, e := range n.entries {
		r = r.Union(e.rect)
	}
	return r
}

// appendEntries adds entries to the node, their rectangles to its MBR and
// the alive ones to its count.
func (n *pnode) appendEntries(adds []pentry) {
	n.entries = append(n.entries, adds...)
	for _, e := range adds {
		n.mbr = n.mbr.Union(e.rect)
		if e.alive() {
			n.nalive++
		}
	}
}

const (
	pnodeHeaderSize = 24
	pentrySize      = 4*8 + 2*8 + 8 // rect + lifetime + ref
)

func (n *pnode) Encode(buf []byte) []byte {
	buf = nodes.PutHeader(buf, pnodeHeaderSize, pentrySize, len(n.entries), n.leaf)
	binary.LittleEndian.PutUint64(buf[8:], uint64(n.startT))
	binary.LittleEndian.PutUint64(buf[16:], uint64(n.endT))
	off := pnodeHeaderSize
	for _, e := range n.entries {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.rect.MinX))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(e.rect.MinY))
		binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(e.rect.MaxX))
		binary.LittleEndian.PutUint64(buf[off+24:], math.Float64bits(e.rect.MaxY))
		binary.LittleEndian.PutUint64(buf[off+32:], uint64(e.insertT))
		binary.LittleEndian.PutUint64(buf[off+40:], uint64(e.deleteT))
		binary.LittleEndian.PutUint64(buf[off+48:], e.ref)
		off += pentrySize
	}
	return buf
}

// growthNeedsNode reports, off a parent's page image, whether
// propagateGrowth has to decode it: the node is live (a live node joins
// the open bracket's table on its first read, and later reads count on
// finding it there), or one of its entries for child does not contain
// rect yet, or the image is too short for its header or its count and
// decodePNode is to word the error. A historical parent whose entries
// for the child all contain the grown rectangle — most of them: a
// rectangle grows by little and a routing rectangle covers many records —
// needs nothing but this scan of its fixed-size entries.
func growthNeedsNode(data []byte, child pagefile.PageID, rect geom.Rect) bool {
	_, count, err := nodes.Header("pprtree", child, data, pnodeHeaderSize, pentrySize)
	if err != nil || int64(binary.LittleEndian.Uint64(data[16:])) == geom.Now {
		return true
	}
	for off := pnodeHeaderSize; count > 0; count, off = count-1, off+pentrySize {
		if binary.LittleEndian.Uint64(data[off+48:]) != uint64(child) {
			continue
		}
		held := geom.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(data[off:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(data[off+16:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(data[off+24:])),
		}
		if !held.Contains(rect) {
			return true
		}
	}
	return false
}

// decodePNode parses a page image into a node. An entry rectangle that is
// not Ordered is corruption and fails the decode with geom.ErrInvertedBox.
func decodePNode(id pagefile.PageID, data []byte) (*pnode, error) {
	leaf, count, err := nodes.Header("pprtree", id, data, pnodeHeaderSize, pentrySize)
	if err != nil {
		return nil, err
	}
	n := &pnode{
		id:      id,
		leaf:    leaf,
		startT:  int64(binary.LittleEndian.Uint64(data[8:])),
		endT:    int64(binary.LittleEndian.Uint64(data[16:])),
		entries: make([]pentry, count),
	}
	off := pnodeHeaderSize
	for i := 0; i < count; i++ {
		n.entries[i] = pentry{
			rect: geom.Rect{
				MinX: math.Float64frombits(binary.LittleEndian.Uint64(data[off:])),
				MinY: math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:])),
				MaxX: math.Float64frombits(binary.LittleEndian.Uint64(data[off+16:])),
				MaxY: math.Float64frombits(binary.LittleEndian.Uint64(data[off+24:])),
			},
			insertT: int64(binary.LittleEndian.Uint64(data[off+32:])),
			deleteT: int64(binary.LittleEndian.Uint64(data[off+40:])),
			ref:     binary.LittleEndian.Uint64(data[off+48:]),
		}
		if r := &n.entries[i].rect; !r.Ordered() {
			return nil, fmt.Errorf("pprtree: page %d entry %d rect %v: %w", id, i, *r, geom.ErrInvertedBox)
		}
		off += pentrySize
	}
	return n, nil
}
