package pprtree

import (
	"fmt"

	"stindex/internal/geom"
	"stindex/internal/nodes"
	"stindex/internal/pagefile"
	"stindex/internal/rsplit"
	"stindex/internal/treewalk"
)

// Options configures a PPR-tree. The zero value selects the paper's setup:
// 50-entry nodes, a 10-page LRU buffer, P_version = 0.22, P_svo = 0.8,
// P_svu = 0.4.
type Options struct {
	// MaxEntries is the physical node capacity B. Default 50.
	MaxEntries int
	// PVersion: a non-root node weakly underflows when fewer than
	// PVersion*B of its records are alive. Default 0.22.
	PVersion float64
	// PSvo: a version split whose copy holds at least PSvo*B alive records
	// strongly overflows and is key-split in two. Default 0.8.
	PSvo float64
	// PSvu: a version split whose copy holds at most PSvu*B alive records
	// strongly underflows and is merged with a sibling. Default 0.4.
	PSvu float64
	// PageSize is the simulated disk page size. Default 4096.
	PageSize int
	// BufferPages is the LRU pool capacity. Default 10.
	BufferPages int
}

func (o Options) withDefaults() (Options, error) {
	if o.PageSize == 0 {
		o.PageSize = pagefile.DefaultPageSize
	}
	if o.MaxEntries == 0 {
		o.MaxEntries = 50
	}
	if o.PVersion == 0 {
		o.PVersion = 0.22
	}
	if o.PSvo == 0 {
		o.PSvo = 0.8
	}
	if o.PSvu == 0 {
		o.PSvu = 0.4
	}
	if o.BufferPages == 0 {
		o.BufferPages = 10
	}
	if o.MaxEntries < 8 {
		return o, fmt.Errorf("pprtree: MaxEntries %d too small (min 8)", o.MaxEntries)
	}
	if err := nodes.Fits("pprtree", o.PageSize, pnodeHeaderSize, pentrySize, o.MaxEntries); err != nil {
		return o, err
	}
	if !(0 < o.PVersion && o.PVersion <= o.PSvu && o.PSvu < o.PSvo && o.PSvo <= 1) {
		return o, fmt.Errorf("pprtree: need 0 < PVersion (%v) <= PSvu (%v) < PSvo (%v) <= 1",
			o.PVersion, o.PSvu, o.PSvo)
	}
	return o, nil
}

// weakMin returns D, the minimum number of alive records per non-root node.
func (o Options) weakMin() int { return int(o.PVersion * float64(o.MaxEntries)) }

// svoMax returns the strong-version-overflow threshold.
func (o Options) svoMax() int { return int(o.PSvo * float64(o.MaxEntries)) }

// svuMin returns the strong-version-underflow threshold.
func (o Options) svuMin() int { return int(o.PSvu * float64(o.MaxEntries)) }

// rootSpan is one line of the root log: the page that was the live root
// during [start, end), and the tree height it had then.
type rootSpan struct {
	page   pagefile.PageID
	start  int64
	end    int64 // geom.Now for the live root
	height int
}

// Tree is a partially persistent R-tree over a simulated page file.
// Updates must be fed in non-decreasing time order (the structure is
// partially persistent: only the newest state accepts changes). Not safe
// for concurrent use.
//
// A replay (BuildRecords, AppendRecords) and an ingest commit group run
// inside one write-back bracket of its node layer (DESIGN.md, "Node
// layer"), where a node is live while its endT is open, so the table is
// bounded by the live frontier. Beside the table the tree keeps a record
// locator (locate.go), kept and rebuilt along with it.
type Tree struct {
	opts   Options
	nodes  nodes.Layer[*pnode]
	roots  []rootSpan                        // historical first, live root last
	now    int64                             // largest update time seen
	size   int                               // records inserted (data inserts, not copies)
	alive  int                               // records currently alive
	path   []*pnode                          // descent scratch of the update in progress
	copies []pentry                          // version-split scratch: the records being moved
	ks     rsplit.Scratch[pentry, geom.Rect] // key-split scratch
	// located is the record locator (locate.go) of the open bracket, or
	// of the table the last one kept; read only inside a bracket.
	located map[uint64]recLoc
	// backRefs maps a node to every directory page that ever referenced
	// it; non-nil only in online mode (EnableExpansion), where ExpandAlive
	// needs to repair historical routing rectangles. A reference is
	// registered when its entry is added to a directory node.
	backRefs map[pagefile.PageID]map[pagefile.PageID]struct{}
	walk     treewalk.Scratch // pooled query scratch
	growth   []growthStep     // propagateGrowth's queue
	// slots[i] is the entry of path[i] that chooseLeafPath descended
	// through; empty after a descent that records none.
	slots []int32
}

// New creates an empty tree whose history begins at startTime.
func New(opts Options, startTime int64) (*Tree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree{opts: opts, now: startTime}
	t.attach(pagefile.New(opts.PageSize))
	root := t.newNode(true, startTime, nil)
	if err := t.nodes.Write(root); err != nil {
		return nil, err
	}
	t.roots = []rootSpan{{page: root.id, start: startTime, end: geom.Now, height: 1}}
	return t, nil
}

// attach gives the tree its store and a cold buffer through the node
// layer.
func (t *Tree) attach(store pagefile.Store) {
	t.nodes.Attach(nodes.Kind[*pnode]{Name: "pprtree", Capacity: t.opts.MaxEntries, Decode: decodePNode,
		Live: (*pnode).live, Prepare: (*pnode).prepare, Open: t.openLocator}, store, t.opts.BufferPages)
}

// Len returns the number of data records ever inserted.
func (t *Tree) Len() int { return t.size }

// Alive returns the number of records alive at the current time.
func (t *Tree) Alive() int { return t.alive }

// Now returns the largest update timestamp applied so far.
func (t *Tree) Now() int64 { return t.now }

// Height returns the height of the live tree (1 = the root is a leaf).
func (t *Tree) Height() int { return t.liveRoot().height }

// NumRoots returns the length of the root log.
func (t *Tree) NumRoots() int { return len(t.roots) }

// Buffer exposes the LRU pool for I/O accounting and cache resets.
func (t *Tree) Buffer() *pagefile.Buffer { return t.nodes.Buffer() }

// Store exposes the underlying page store for space accounting.
func (t *Tree) Store() pagefile.Store { return t.nodes.Store() }

// Options returns the effective configuration.
func (t *Tree) Options() Options { return t.opts }

func (t *Tree) liveRoot() *rootSpan { return &t.roots[len(t.roots)-1] }

// rootAt returns the root span covering time q, or nil when q predates the
// tree.
func (t *Tree) rootAt(q int64) *rootSpan {
	// The log is sorted by start; spans tile [roots[0].start, Now).
	lo, hi := 0, len(t.roots)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		r := &t.roots[mid]
		switch {
		case q < r.start:
			hi = mid - 1
		case q >= r.end:
			lo = mid + 1
		default:
			return r
		}
	}
	return nil
}

// QueryView returns a read-only view of the tree over a fresh buffer
// pool (nodes.Layer.View). Using a view for updates is a misuse.
func (t *Tree) QueryView() *Tree {
	return &Tree{opts: t.opts, nodes: t.nodes.View(), roots: t.roots, now: t.now,
		size: t.size, alive: t.alive, backRefs: t.backRefs}
}

// Batch runs fn inside one write-back bracket of the node layer; a
// failure poisons the tree, and every later page access, update and
// serialisation returns it.
func (t *Tree) Batch(fn func() error) error { return t.nodes.Batch(fn) }

func (t *Tree) advance(time int64) error {
	if err := t.nodes.Err(); err != nil {
		return err
	}
	if time < t.now {
		return fmt.Errorf("pprtree: update at %d before current time %d (partially persistent structures are append-only in time)", time, t.now)
	}
	t.now = time
	return nil
}
