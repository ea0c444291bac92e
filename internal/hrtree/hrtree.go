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

	"stindex/internal/geom"
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
	hflagLeaf       = 0x01
)

func maxEntriesFor(pageSize int) int {
	return (pageSize - hnodeHeaderSize) / hentrySize
}

func (n *hnode) encode(buf []byte) []byte {
	need := hnodeHeaderSize + len(n.entries)*hentrySize
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	var flags byte
	if n.leaf {
		flags |= hflagLeaf
	}
	buf[0] = flags
	buf[1] = 0
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.entries)))
	binary.LittleEndian.PutUint32(buf[4:], 0)
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
	if len(data) < hnodeHeaderSize {
		return nil, fmt.Errorf("hrtree: page %d too short", id)
	}
	count := int(binary.LittleEndian.Uint16(data[2:]))
	need := hnodeHeaderSize + count*hentrySize
	if len(data) < need {
		return nil, fmt.Errorf("hrtree: page %d truncated", id)
	}
	n := &hnode{id: id, leaf: data[0]&hflagLeaf != 0, entries: make([]hentry, count)}
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
	if maxEntriesFor(o.PageSize) < o.MaxEntries {
		return o, fmt.Errorf("hrtree: page size %d fits only %d entries, need %d",
			o.PageSize, maxEntriesFor(o.PageSize), o.MaxEntries)
	}
	return o, nil
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
// non-decreasing time order. Not safe for concurrent use.
type Tree struct {
	opts     Options
	file     pagefile.Store
	buf      *pagefile.Buffer
	versions []version
	now      int64
	size     int // records ever inserted
	alive    int
	// fresh marks pages created during the current instant: they are
	// private to the newest version and may be mutated in place; all
	// other pages are shared history and must be copied before changing.
	fresh  map[pagefile.PageID]bool
	encBuf []byte
	walk   treewalk.Scratch                  // pooled query scratch
	split  rsplit.Scratch[hentry, geom.Rect] // node-split scratch
}

// New creates an empty tree whose history begins at startTime.
func New(opts Options, startTime int64) (*Tree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	file := pagefile.New(opts.PageSize)
	t := &Tree{
		opts:  opts,
		file:  file,
		buf:   pagefile.NewBuffer(file, opts.BufferPages),
		now:   startTime,
		fresh: map[pagefile.PageID]bool{},
	}
	root := &hnode{id: file.Allocate(), leaf: true}
	if err := t.writeNode(root); err != nil {
		return nil, err
	}
	t.versions = []version{{page: root.id, start: startTime, end: geom.Now, height: 1}}
	t.fresh[root.id] = true
	return t, nil
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
func (t *Tree) Buffer() *pagefile.Buffer { return t.buf }

// Store exposes the page store.
func (t *Tree) Store() pagefile.Store { return t.file }

func (t *Tree) current() *version { return &t.versions[len(t.versions)-1] }

// readNode returns a private decoded copy of the page for mutating paths.
func (t *Tree) readNode(id pagefile.PageID) (*hnode, error) {
	data, err := t.buf.Read(id)
	if err != nil {
		return nil, err
	}
	return decodeHNode(id, data)
}

// decodeHNodeCached adapts decodeHNode to the buffer's decode cache.
func decodeHNodeCached(id pagefile.PageID, data []byte) (any, error) {
	return decodeHNode(id, data)
}

// readShared returns the page's decoded node through the buffer's decode
// cache; the node is shared and must not be mutated. I/O accounting is
// identical to readNode.
func (t *Tree) readShared(id pagefile.PageID) (*hnode, error) {
	v, err := t.buf.ReadDecoded(id, decodeHNodeCached)
	if err != nil {
		return nil, err
	}
	return v.(*hnode), nil
}

// QueryView returns a read-only view of the tree with a private buffer
// pool (and decode cache) over the shared page file, for concurrent
// queries against a frozen tree. Using a view for updates is a misuse.
func (t *Tree) QueryView() *Tree {
	cp := *t
	cp.buf = pagefile.NewBuffer(t.file, t.opts.BufferPages)
	cp.encBuf = nil
	cp.walk = treewalk.Scratch{}
	cp.split = rsplit.Scratch[hentry, geom.Rect]{}
	return &cp
}

func (t *Tree) writeNode(n *hnode) error {
	if len(n.entries) > t.opts.MaxEntries {
		return fmt.Errorf("hrtree: node %d overflows", n.id)
	}
	t.encBuf = n.encode(t.encBuf)
	return t.buf.Write(n.id, t.encBuf)
}

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
	t.fresh = map[pagefile.PageID]bool{}
	t.now = time
	return nil
}

// privatize returns a mutable copy of n in the current version: n itself
// when it is already fresh, otherwise a new page with the same content.
func (t *Tree) privatize(n *hnode) (*hnode, error) {
	if t.fresh[n.id] {
		return n, nil
	}
	cp := &hnode{id: t.file.Allocate(), leaf: n.leaf, entries: append([]hentry(nil), n.entries...)}
	if err := t.writeNode(cp); err != nil {
		return nil, err
	}
	t.fresh[cp.id] = true
	return cp, nil
}
