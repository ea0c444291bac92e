// Package hrtree implements the overlapping approach to partial
// persistence — the historical R-tree of Nascimento & Silva (the paper's
// reference [17], following the overlapping B-trees of [4]): conceptually
// one 2-dimensional R-tree per time instant, with consecutive trees
// sharing every unchanged branch. Updates copy-on-write the root-to-leaf
// path they touch and publish a new root version.
//
// The paper uses this family as the foil for the multi-version approach:
// "while easy to implement, overlapping creates a logarithmic overhead on
// the index storage requirements" [24], and interval queries must probe
// one tree per version. This package exists so both costs can be measured
// against the PPR-tree (experiment "overlap", BenchmarkOverlappingVsPPR).
package hrtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"stindex/internal/geom"
	"stindex/internal/nodes"
	"stindex/internal/pagefile"
	"stindex/internal/rsplit"
	"stindex/internal/treewalk"
)

// hentry is one slot of a node: a rectangle plus a child page (directory)
// or data reference (leaf).
type hentry struct {
	rect geom.Rect
	ref  uint64
}

func (e hentry) Box() geom.Rect { return e.rect }

type hnode struct {
	id      pagefile.PageID
	leaf    bool
	entries []hentry
}

func (n *hnode) PageID() pagefile.PageID { return n.id }
func (n *hnode) Len() int                { return len(n.entries) }

func (n *hnode) mbr() geom.Rect {
	r := geom.EmptyRect()
	for _, e := range n.entries {
		r = r.Union(e.rect)
	}
	return r
}

const (
	hnodeHeaderSize = 8
	hentrySize      = 4*8 + 8
)

func (n *hnode) Encode(buf []byte) []byte {
	buf = nodes.PutHeader(buf, hnodeHeaderSize, hentrySize, len(n.entries), n.leaf)
	off := hnodeHeaderSize
	for _, e := range n.entries {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.rect.MinX))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(e.rect.MinY))
		binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(e.rect.MaxX))
		binary.LittleEndian.PutUint64(buf[off+24:], math.Float64bits(e.rect.MaxY))
		binary.LittleEndian.PutUint64(buf[off+32:], e.ref)
		off += hentrySize
	}
	return buf
}

// decodeHNode parses a page image into a node. An entry rectangle that is
// not Ordered is corruption and fails the decode with geom.ErrInvertedBox.
func decodeHNode(id pagefile.PageID, data []byte) (*hnode, error) {
	leaf, count, err := nodes.Header("hrtree", id, data, hnodeHeaderSize, hentrySize)
	if err != nil {
		return nil, err
	}
	n := &hnode{id: id, leaf: leaf, entries: make([]hentry, count)}
	off := hnodeHeaderSize
	for i := 0; i < count; i++ {
		n.entries[i] = hentry{
			rect: geom.Rect{
				MinX: math.Float64frombits(binary.LittleEndian.Uint64(data[off:])),
				MinY: math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:])),
				MaxX: math.Float64frombits(binary.LittleEndian.Uint64(data[off+16:])),
				MaxY: math.Float64frombits(binary.LittleEndian.Uint64(data[off+24:])),
			},
			ref: binary.LittleEndian.Uint64(data[off+32:]),
		}
		if r := &n.entries[i].rect; !r.Ordered() {
			return nil, fmt.Errorf("hrtree: page %d entry %d rect %v: %w", id, i, *r, geom.ErrInvertedBox)
		}
		off += hentrySize
	}
	return n, nil
}

// Options configures a Tree. Zero values: 50-entry nodes, 40% minimum
// fill, 4096-byte pages, a 10-page LRU buffer.
type Options struct {
	MaxEntries  int
	MinEntries  int
	PageSize    int
	BufferPages int
}

func (o Options) withDefaults() (Options, error) {
	if o.PageSize == 0 {
		o.PageSize = pagefile.DefaultPageSize
	}
	if o.MaxEntries == 0 {
		o.MaxEntries = 50
	}
	if o.MinEntries == 0 {
		o.MinEntries = o.MaxEntries * 2 / 5
	}
	if o.BufferPages == 0 {
		o.BufferPages = 10
	}
	if o.MaxEntries < 4 {
		return o, fmt.Errorf("hrtree: MaxEntries %d too small", o.MaxEntries)
	}
	if o.MinEntries < 1 || o.MinEntries > o.MaxEntries/2 {
		return o, fmt.Errorf("hrtree: MinEntries %d out of range [1,%d]", o.MinEntries, o.MaxEntries/2)
	}
	return o, nodes.Fits("hrtree", o.PageSize, hnodeHeaderSize, hentrySize, o.MaxEntries)
}

// version is one root of the overlapping forest: the logical R-tree that
// was current during [start, end).
type version struct {
	page   pagefile.PageID
	start  int64
	end    int64 // geom.Now while current
	height int
}

// Tree is an overlapping (historical) R-tree. Updates must arrive in
// non-decreasing time order. Not safe for concurrent use. In its node
// layer a node is live while it is fresh (DESIGN.md, "Node layer").
type Tree struct {
	opts     Options
	nodes    nodes.Layer[*hnode]
	versions []version
	now      int64
	size     int // records ever inserted
	alive    int
	// fresh marks pages created during the current instant: they are
	// private to the newest version and may be mutated in place; all
	// other pages are shared history and must be copied before changing.
	fresh map[pagefile.PageID]bool
	walk  treewalk.Scratch                  // pooled query scratch
	split rsplit.Scratch[hentry, geom.Rect] // node-split scratch
	// path is the root-to-node path of the update in progress, shared by
	// choosePath, findRecord, privatizePath and insertSubtree: valid
	// until the next descent. A delete's own path is finished before
	// condensePath reinserts its orphans, which descend into it again.
	path []*hnode
}

// New creates an empty tree whose history begins at startTime.
func New(opts Options, startTime int64) (*Tree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree{opts: opts, now: startTime, fresh: map[pagefile.PageID]bool{}}
	t.attach(pagefile.New(opts.PageSize))
	root, err := t.newNode(true, nil)
	if err != nil {
		return nil, err
	}
	t.versions = []version{{page: root.id, start: startTime, end: geom.Now, height: 1}}
	return t, nil
}

// attach gives the tree its store and a cold buffer through the node
// layer, in which a node is live while it is fresh.
func (t *Tree) attach(store pagefile.Store) {
	live := func(n *hnode) bool { return t.fresh[n.id] }
	t.nodes.Attach(nodes.Kind[*hnode]{Name: "hrtree", Capacity: t.opts.MaxEntries, Decode: decodeHNode, Live: live},
		store, t.opts.BufferPages)
}

// Len returns the number of records ever inserted.
func (t *Tree) Len() int { return t.size }

// Alive returns the records alive in the current version.
func (t *Tree) Alive() int { return t.alive }

// NumVersions returns the number of root versions.
func (t *Tree) NumVersions() int { return len(t.versions) }

// VersionRoots calls fn with each version's root page, height and time
// span, oldest first.
func (t *Tree) VersionRoots(fn func(root pagefile.PageID, height int, start, end int64)) {
	for _, v := range t.versions {
		fn(v.page, v.height, v.start, v.end)
	}
}

// Buffer exposes the LRU pool.
func (t *Tree) Buffer() *pagefile.Buffer { return t.nodes.Buffer() }

// Store exposes the page store.
func (t *Tree) Store() pagefile.Store { return t.nodes.Store() }

func (t *Tree) current() *version { return &t.versions[len(t.versions)-1] }

// QueryView returns a read-only view of the tree over a fresh buffer
// pool (nodes.Layer.View). Using a view for updates is a misuse.
func (t *Tree) QueryView() *Tree {
	return &Tree{opts: t.opts, nodes: t.nodes.View(), versions: t.versions, now: t.now,
		size: t.size, alive: t.alive}
}

// Batch runs fn inside one write-back bracket of the node layer.
func (t *Tree) Batch(fn func() error) error { return t.nodes.Batch(fn) }

// advance seals the current version and opens a new one when time moves.
func (t *Tree) advance(time int64) error {
	if time < t.now {
		return fmt.Errorf("hrtree: update at %d before current time %d", time, t.now)
	}
	if time == t.now {
		return nil
	}
	cur := t.current()
	if time == cur.start {
		t.now = time
		return nil
	}
	// A new instant: everything built so far becomes immutable history.
	// The new version starts out sharing the old root; the first actual
	// modification will copy the path it touches.
	cur.end = time
	t.versions = append(t.versions, version{page: cur.page, start: time, end: geom.Now, height: cur.height})
	clear(t.fresh)
	t.now = time
	return t.nodes.Flush() // the fresh nodes are history: write them and empty the table
}

// privatize returns a mutable node of the current version for n, which
// a descent read shared: n read for update when it is fresh, otherwise a
// new page with the same content. The copy has room for the entry the
// update that privatized it may add, plus its size class's spare room, so
// that append need not grow it again.
func (t *Tree) privatize(n *hnode) (*hnode, error) {
	if t.fresh[n.id] {
		return t.nodes.Read(n.id)
	}
	return t.newNode(n.leaf, append(slices.Grow([]hentry(nil), len(n.entries)+1), n.entries...))
}

// newNode allocates and writes a fresh node holding entries.
func (t *Tree) newNode(leaf bool, entries []hentry) (*hnode, error) {
	n := &hnode{id: t.nodes.Store().Allocate(), leaf: leaf, entries: entries}
	t.fresh[n.id] = true
	return n, t.nodes.Write(n)
}
