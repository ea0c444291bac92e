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
	"stindex/internal/nodes"
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

func (n *node) PageID() pagefile.PageID { return n.id }
func (n *node) Len() int                { return len(n.entries) }

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
)

// Encode serialises the node into buf, grown when too short, and returns
// the used slice.
func (n *node) Encode(buf []byte) []byte {
	buf = nodes.PutHeader(buf, nodeHeaderSize, entrySize, len(n.entries), n.leaf)
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
	leaf, count, err := nodes.Header("rstar", id, data, nodeHeaderSize, entrySize)
	if err != nil {
		return nil, err
	}
	n := &node{id: id, leaf: leaf, entries: make([]entry, count)}
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
