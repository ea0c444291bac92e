package rstar

import (
	"fmt"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
	"stindex/internal/rsplit"
	"stindex/internal/treewalk"
)

// Options configures a Tree. The zero value selects the paper's setup:
// 50-entry nodes, a 10-page LRU buffer, R* fill factors.
type Options struct {
	// MaxEntries is the node capacity B. Default 50 (the paper's page
	// capacity). Must fit in a page: MaxEntries*56+8 <= PageSize.
	MaxEntries int
	// MinEntries is the minimum fill m. Default 40% of MaxEntries.
	MinEntries int
	// ReinsertCount is the number of entries evicted by the R* forced
	// reinsertion. Default 30% of MaxEntries.
	ReinsertCount int
	// PageSize is the simulated disk page size. Default 4096.
	PageSize int
	// BufferPages is the LRU pool capacity. Default 10 (the paper's).
	BufferPages int
	// Parallelism is the worker count for bulk loading's slab tiling
	// (BulkLoadSTR): 0 selects GOMAXPROCS, 1 forces the serial path. The
	// resulting tree is byte-identical for every setting — parallelism
	// changes build wall clock, never structure. Queries and inserts are
	// unaffected (the tree itself is not safe for concurrent use).
	Parallelism int
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
	if o.ReinsertCount == 0 {
		o.ReinsertCount = o.MaxEntries * 3 / 10
	}
	if o.BufferPages == 0 {
		o.BufferPages = 10
	}
	if o.MaxEntries < 4 {
		return o, fmt.Errorf("rstar: MaxEntries %d too small (min 4)", o.MaxEntries)
	}
	if o.MinEntries < 1 || o.MinEntries > o.MaxEntries/2 {
		return o, fmt.Errorf("rstar: MinEntries %d out of range [1, %d]", o.MinEntries, o.MaxEntries/2)
	}
	if o.ReinsertCount < 1 || o.ReinsertCount >= o.MaxEntries {
		return o, fmt.Errorf("rstar: ReinsertCount %d out of range [1, %d)", o.ReinsertCount, o.MaxEntries)
	}
	if maxEntriesFor(o.PageSize) < o.MaxEntries {
		return o, fmt.Errorf("rstar: page size %d fits only %d entries, need %d",
			o.PageSize, maxEntriesFor(o.PageSize), o.MaxEntries)
	}
	return o, nil
}

// Tree is a 3D R*-tree stored on a simulated page file. Not safe for
// concurrent use; wrap with external locking if needed, or fan queries
// out over QueryView instances.
type Tree struct {
	opts   Options
	file   pagefile.Store
	buf    *pagefile.Buffer
	root   pagefile.PageID
	height int // 1 = root is a leaf
	size   int // number of data entries
	encBuf []byte
	walk   treewalk.Scratch                 // pooled query scratch
	split  rsplit.Scratch[entry, geom.Box3] // node-split scratch
}

// New creates an empty tree.
func New(opts Options) (*Tree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	file := pagefile.New(opts.PageSize)
	t := &Tree{
		opts:   opts,
		file:   file,
		buf:    pagefile.NewBuffer(file, opts.BufferPages),
		height: 1,
	}
	root := &node{id: file.Allocate(), leaf: true}
	if err := t.writeNode(root); err != nil {
		return nil, err
	}
	t.root = root.id
	return t, nil
}

// Len returns the number of data entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Buffer exposes the LRU pool, for I/O accounting and cache resets.
func (t *Tree) Buffer() *pagefile.Buffer { return t.buf }

// Store exposes the underlying page store, for space accounting.
func (t *Tree) Store() pagefile.Store { return t.file }

// Options returns the effective configuration.
func (t *Tree) Options() Options { return t.opts }

// readNode returns a private decoded copy of the page, parsed fresh from
// the buffered image. Mutating paths (insert, delete, split) use it: they
// are free to edit the node in place before writing it back.
func (t *Tree) readNode(id pagefile.PageID) (*node, error) {
	data, err := t.buf.Read(id)
	if err != nil {
		return nil, err
	}
	return decodeNode(id, data)
}

// decodeNodeCached adapts decodeNode to the buffer's decode cache.
func decodeNodeCached(id pagefile.PageID, data []byte) (any, error) {
	return decodeNode(id, data)
}

// readShared returns the page's decoded node through the buffer's decode
// cache: a repeat visit of an unchanged page — even after the cold-cache
// Reset between queries — skips the parse. The node is shared; callers
// must not mutate it. I/O accounting is identical to readNode.
func (t *Tree) readShared(id pagefile.PageID) (*node, error) {
	v, err := t.buf.ReadDecoded(id, decodeNodeCached)
	if err != nil {
		return nil, err
	}
	return v.(*node), nil
}

// QueryView returns a read-only view of the tree: same pages, same
// layout, same options, but a private buffer pool (and decode cache) over
// the shared page file. Views answer queries concurrently with each other
// and with the parent as long as nobody mutates the tree — the File's
// frozen state is safe for concurrent readers, and all per-query state
// (buffer, stats, traversal scratch) is per-view. Using a view for
// inserts or deletes is a misuse.
func (t *Tree) QueryView() *Tree {
	cp := *t
	cp.buf = pagefile.NewBuffer(t.file, t.opts.BufferPages)
	cp.encBuf = nil
	cp.walk = treewalk.Scratch{}
	cp.split = rsplit.Scratch[entry, geom.Box3]{}
	return &cp
}

func (t *Tree) writeNode(n *node) error {
	if len(n.entries) > t.opts.MaxEntries+1 {
		return fmt.Errorf("rstar: node %d has %d entries, exceeding overflow capacity", n.id, len(n.entries))
	}
	t.encBuf = n.encode(t.encBuf)
	return t.buf.Write(n.id, t.encBuf)
}

// Search invokes fn for every data entry whose box intersects q, stopping
// early when fn returns false. Node visits go through the buffer pool, so
// t.Buffer().Stats() reflects the query's disk accesses. The query is
// checked once (geom.Box3.AsQuery): an empty one reads the root and
// matches nothing. Each entry then costs one geom.Box3.Hits, which needs
// no emptiness test because decodeNode refuses an inverted entry box.
func (t *Tree) Search(q geom.Box3, fn func(b geom.Box3, ref uint64) bool) error {
	probe := q.AsQuery()
	roots := append(t.walk.Roots(), uint64(t.root))
	return t.walk.DFS(roots, t.file.NumPages(), false, func(id pagefile.PageID, stack []uint64) ([]uint64, bool, error) {
		n, err := t.readShared(id)
		if err != nil {
			return stack, false, err
		}
		if n.leaf {
			for i := range n.entries {
				if e := &n.entries[i]; probe.Hits(&e.box) && !fn(e.box, e.ref) {
					return stack, false, nil
				}
			}
			return stack, true, nil
		}
		for i := len(n.entries) - 1; i >= 0; i-- {
			if e := &n.entries[i]; probe.Hits(&e.box) {
				stack = append(stack, e.ref)
			}
		}
		return stack, true, nil
	})
}

// NearestSearch emits every data entry whose box covers the scaled time
// coordinate tc, in ascending order of squared XY min-distance between
// the box and the point (x, y), stopping when fn returns false:
// best-first search (see treewalk.BestFirst) with the time axis as a slab
// filter. A directory box covers tc whenever any descendant does (3D
// containment), and its MinDistXY2 never exceeds a descendant's, so both
// the filter and the priority are admissible.
func (t *Tree) NearestSearch(x, y, tc float64, fn func(dist2 float64, ref uint64) bool) error {
	return t.walk.BestFirst(t.root, t.file.NumPages(), func(id pagefile.PageID, queue []treewalk.Frame) ([]treewalk.Frame, error) {
		n, err := t.readShared(id)
		if err != nil {
			return queue, err
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.box.Min[2] <= tc && tc <= e.box.Max[2] {
				queue = append(queue, treewalk.Frame{Dist: e.box.MinDistXY2(x, y), Ref: e.ref, Entry: n.leaf})
			}
		}
		return queue, nil
	}, fn)
}

// Count returns the number of data entries intersecting q.
func (t *Tree) Count(q geom.Box3) (int, error) {
	c := 0
	err := t.Search(q, func(geom.Box3, uint64) bool { c++; return true })
	return c, err
}

// Validate walks the whole tree checking structural invariants: uniform
// leaf depth, fill factors (root exempt), and that every directory entry's
// box tightly contains its child. Intended for tests.
func (t *Tree) Validate() error {
	leafDepth := -1
	var walk func(id pagefile.PageID, depth int, isRoot bool) (geom.Box3, int, error)
	walk = func(id pagefile.PageID, depth int, isRoot bool) (geom.Box3, int, error) {
		n, err := t.readShared(id)
		if err != nil {
			return geom.Box3{}, 0, err
		}
		if !isRoot && (len(n.entries) < t.opts.MinEntries || len(n.entries) > t.opts.MaxEntries) {
			return geom.Box3{}, 0, fmt.Errorf("rstar: node %d has %d entries, want [%d,%d]",
				id, len(n.entries), t.opts.MinEntries, t.opts.MaxEntries)
		}
		if len(n.entries) > t.opts.MaxEntries {
			return geom.Box3{}, 0, fmt.Errorf("rstar: node %d overflows", id)
		}
		count := 0
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return geom.Box3{}, 0, fmt.Errorf("rstar: leaf %d at depth %d, expected %d", id, depth, leafDepth)
			}
			return n.mbr(), len(n.entries), nil
		}
		for _, e := range n.entries {
			childBox, c, err := walk(pagefile.PageID(e.ref), depth+1, false)
			if err != nil {
				return geom.Box3{}, 0, err
			}
			count += c
			if !boxesEqual(childBox, e.box) {
				return geom.Box3{}, 0, fmt.Errorf("rstar: node %d entry box %v != child %d mbr %v",
					id, e.box, e.ref, childBox)
			}
		}
		return n.mbr(), count, nil
	}
	_, count, err := walk(t.root, 1, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rstar: tree holds %d entries, size says %d", count, t.size)
	}
	if leafDepth != t.height {
		return fmt.Errorf("rstar: leaves at depth %d, height says %d", leafDepth, t.height)
	}
	return nil
}

func boxesEqual(a, b geom.Box3) bool {
	for d := 0; d < 3; d++ {
		if a.Min[d] != b.Min[d] || a.Max[d] != b.Max[d] {
			return false
		}
	}
	return true
}

// LevelStats describes one level of the tree for the analytical cost model:
// the number of nodes and the per-node MBRs.
type LevelStats struct {
	Level int // 1 = root level
	Nodes int
	MBRs  []geom.Box3
}

// Levels returns per-level statistics from the root (level 1) down to the
// leaves. The walk goes through the buffer; reset stats afterwards if you
// are counting query I/O.
func (t *Tree) Levels() ([]LevelStats, error) {
	stats := make([]LevelStats, t.height)
	for i := range stats {
		stats[i].Level = i + 1
	}
	var walk func(id pagefile.PageID, depth int) error
	walk = func(id pagefile.PageID, depth int) error {
		n, err := t.readShared(id)
		if err != nil {
			return err
		}
		s := &stats[depth-1]
		s.Nodes++
		s.MBRs = append(s.MBRs, n.mbr())
		if n.leaf {
			return nil
		}
		for _, e := range n.entries {
			if err := walk(pagefile.PageID(e.ref), depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1); err != nil {
		return nil, err
	}
	return stats, nil
}
