// Package rstar implements a 3-dimensional R*-tree (Beckmann, Kriegel,
// Schneider, Seeger, SIGMOD 1990) over a simulated page file. It is the
// "straightforward approach" baseline of the paper: each spatiotemporal
// record becomes a 3D rectangle whose third axis is its lifetime scaled to
// the unit range, and the tree provides box-intersection search with exact
// I/O accounting through an LRU buffer pool.
package rstar

import (
	"encoding/binary"
	"fmt"
	"math"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// entry is one slot of a node: a 3D box plus a reference, which is a child
// page id in directory nodes and an opaque data id in leaves.
type entry struct {
	box geom.Box3
	ref uint64
}

func (e entry) Box() geom.Box3 { return e.box }

// node is the decoded form of one page.
type node struct {
	id      pagefile.PageID
	leaf    bool
	entries []entry
}

// mbr returns the bounding box of all entries.
func (n *node) mbr() geom.Box3 {
	b := geom.EmptyBox3()
	for _, e := range n.entries {
		b = b.Union(e.box)
	}
	return b
}

const (
	nodeHeaderSize = 8
	entrySize      = 6*8 + 8 // six float64 coordinates + uint64 ref
	flagLeaf       = 0x01
)

// maxEntriesFor returns the node capacity a page of the given size can hold.
func maxEntriesFor(pageSize int) int {
	return (pageSize - nodeHeaderSize) / entrySize
}

// encode serialises the node into buf (which must be at least
// nodeHeaderSize + len(entries)*entrySize long) and returns the used slice.
func (n *node) encode(buf []byte) []byte {
	need := nodeHeaderSize + len(n.entries)*entrySize
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	var flags byte
	if n.leaf {
		flags |= flagLeaf
	}
	buf[0] = flags
	buf[1] = 0
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.entries)))
	binary.LittleEndian.PutUint32(buf[4:], 0)
	off := nodeHeaderSize
	for _, e := range n.entries {
		for d := 0; d < 3; d++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.box.Min[d]))
			off += 8
		}
		for d := 0; d < 3; d++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.box.Max[d]))
			off += 8
		}
		binary.LittleEndian.PutUint64(buf[off:], e.ref)
		off += 8
	}
	return buf
}

// decodeNode parses a page image into a node. An entry box that is not
// Ordered is corruption and fails the decode with geom.ErrInvertedBox.
func decodeNode(id pagefile.PageID, data []byte) (*node, error) {
	if len(data) < nodeHeaderSize {
		return nil, fmt.Errorf("rstar: page %d too short (%d bytes)", id, len(data))
	}
	count := int(binary.LittleEndian.Uint16(data[2:]))
	need := nodeHeaderSize + count*entrySize
	if len(data) < need {
		return nil, fmt.Errorf("rstar: page %d truncated: %d entries need %d bytes, have %d",
			id, count, need, len(data))
	}
	n := &node{
		id:      id,
		leaf:    data[0]&flagLeaf != 0,
		entries: make([]entry, count),
	}
	off := nodeHeaderSize
	for i := 0; i < count; i++ {
		var e entry
		for d := 0; d < 3; d++ {
			e.box.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
		for d := 0; d < 3; d++ {
			e.box.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
		e.ref = binary.LittleEndian.Uint64(data[off:])
		off += 8
		if !e.box.Ordered() {
			return nil, fmt.Errorf("rstar: page %d entry %d box %v: %w", id, i, e.box, geom.ErrInvertedBox)
		}
		n.entries[i] = e
	}
	return n, nil
}
