package rstar

import (
	"fmt"

	"stindex/internal/geom"
	"stindex/internal/nodes"
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
	return o, nodes.Fits("rstar", o.PageSize, nodeHeaderSize, entrySize, o.MaxEntries)
}

// Tree is a 3D R*-tree stored on a simulated page file. Not safe for
// concurrent use; wrap with external locking if needed, or fan queries
// out over QueryView instances. In its node layer every node is live.
type Tree struct {
	opts   Options
	nodes  nodes.Layer[*node]
	root   pagefile.PageID
	height int                              // 1 = root is a leaf
	size   int                              // number of data entries
	walk   treewalk.Scratch                 // pooled query scratch
	split  rsplit.Scratch[entry, geom.Box3] // node-split scratch
	path   []*node                          // choosePath's descent scratch
	// reinserted[level] records that forced reinsertion ran at that level
	// during the insert in progress (R* runs it at most once per level).
	reinserted []bool
}

// New creates an empty tree.
func New(opts Options) (*Tree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree{opts: opts, height: 1}
	t.attach(pagefile.New(opts.PageSize))
	root := &node{id: t.nodes.Store().Allocate(), leaf: true}
	if err := t.nodes.Write(root); err != nil {
		return nil, err
	}
	t.root = root.id
	return t, nil
}

// attach gives the tree its store and a cold buffer through the node
// layer. A node is written with up to MaxEntries+1 entries.
func (t *Tree) attach(store pagefile.Store) {
	t.nodes.Attach(nodes.Kind[*node]{Name: "rstar", Capacity: t.opts.MaxEntries + 1, Decode: decodeNode},
		store, t.opts.BufferPages)
}

// Len returns the number of data entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Buffer exposes the LRU pool, for I/O accounting and cache resets.
func (t *Tree) Buffer() *pagefile.Buffer { return t.nodes.Buffer() }

// Store exposes the underlying page store, for space accounting.
func (t *Tree) Store() pagefile.Store { return t.nodes.Store() }

// Options returns the effective configuration.
func (t *Tree) Options() Options { return t.opts }

// QueryView returns a read-only view of the tree over a fresh buffer
// pool (nodes.Layer.View). Using a view for inserts is a misuse.
func (t *Tree) QueryView() *Tree {
	return &Tree{opts: t.opts, nodes: t.nodes.View(), root: t.root, height: t.height, size: t.size}
}

// Batch runs fn inside one write-back bracket of the node layer.
func (t *Tree) Batch(fn func() error) error { return t.nodes.Batch(fn) }

// Search invokes fn for every data entry whose box intersects q, stopping
// early when fn returns false. Node visits go through the buffer pool, so
// t.Buffer().Stats() reflects the query's disk accesses. The query is
// checked once (geom.Box3.AsQuery): an empty one reads the root and
// matches nothing. Each entry then costs one geom.Box3.Hits, which needs
// no emptiness test because decodeNode refuses an inverted entry box.
func (t *Tree) Search(q geom.Box3, fn func(b geom.Box3, ref uint64) bool) error {
	probe := q.AsQuery()
	roots := append(t.walk.Roots(), uint64(t.root))
	return t.walk.DFS(roots, t.nodes.Store().NumPages(), false, func(id pagefile.PageID, stack []uint64) ([]uint64, bool, error) {
		n, err := t.nodes.ReadShared(id)
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
	return t.walk.BestFirst(t.root, t.nodes.Store().NumPages(), func(id pagefile.PageID, queue []treewalk.Frame) ([]treewalk.Frame, error) {
		n, err := t.nodes.ReadShared(id)
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
		n, err := t.nodes.ReadShared(id)
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
		n, err := t.nodes.ReadShared(id)
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
