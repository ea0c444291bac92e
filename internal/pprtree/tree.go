package pprtree

import (
	"cmp"
	"fmt"
	"slices"

	"stindex/internal/geom"
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
	if maxEntriesFor(o.PageSize) < o.MaxEntries {
		return o, fmt.Errorf("pprtree: page size %d fits only %d entries, need %d",
			o.PageSize, maxEntriesFor(o.PageSize), o.MaxEntries)
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
// A write-back bracket (Batch) is open for the length of a replay
// (BuildRecords, AppendRecords) or of an ingest commit group; outside one
// the page store is the truth. Inside a bracket the decoded live nodes
// stay in a table keyed by page id: readNode and readShared hand out the
// resident node, writeNode on a live node only marks it dirty, a node
// that dies (version split, root shrink) is encoded and written once and
// leaves the table, and the dirty rest is flushed in ascending page-id
// order before Batch returns. So each live node is decoded at most once
// and written at most once per bracket however many updates touch it.
// The table holds live nodes only, so it is bounded by the live frontier.
// Beside it the bracket keeps a record locator (locate.go), so a delete
// finds its record without a search. A bracket that succeeds leaves its
// table, every node clean, and its locator to the next bracket, which
// opens on them instead of decoding the live nodes again; nothing reads
// them between brackets, and a write outside a bracket, AttachStore or a
// failed bracket drops them.
// An update made outside a bracket is write-through: every node it
// touches is parsed from its page image and written back before the call
// returns. Pages are allocated when nodes are created either way, so the
// resulting store is byte-identical.
//
// A bracket that fails — an error from its function or a failed flush —
// leaves memory ahead of the pages. The table is discarded and the tree
// is poisoned: every later page access, update and serialisation returns
// the failure instead of answering from pages older than what the
// bracket had applied.
type Tree struct {
	opts   Options
	file   pagefile.Store
	buf    *pagefile.Buffer
	roots  []rootSpan // historical first, live root last
	now    int64      // largest update time seen
	size   int        // records inserted (data inserts, not copies)
	alive  int        // records currently alive
	encBuf []byte
	path   []*pnode                          // descent scratch of the update in progress
	copies []pentry                          // version-split scratch: the records being moved
	ks     rsplit.Scratch[pentry, geom.Rect] // key-split scratch
	// resident is the open bracket's write-back table of decoded live
	// nodes; nil while no bracket is open.
	resident map[pagefile.PageID]*pnode
	// located is the open bracket's record locator (locate.go); nil
	// outside a bracket.
	located map[uint64]recLoc
	// failed poisons the tree after a failed bracket.
	failed error
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
	// kept and keptLocated are the resident table and the locator the
	// last bracket left for the next one (Batch); nil while a bracket is
	// open and once dropped.
	kept        map[pagefile.PageID]*pnode
	keptLocated map[uint64]recLoc
}

// New creates an empty tree whose history begins at startTime.
func New(opts Options, startTime int64) (*Tree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	file := pagefile.New(opts.PageSize)
	t := &Tree{
		opts: opts,
		file: file,
		buf:  pagefile.NewBuffer(file, opts.BufferPages),
		now:  startTime,
	}
	root := t.newNode(true, startTime, nil)
	if err := t.writeNode(root); err != nil {
		return nil, err
	}
	t.roots = []rootSpan{{page: root.id, start: startTime, end: geom.Now, height: 1}}
	return t, nil
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
func (t *Tree) Buffer() *pagefile.Buffer { return t.buf }

// Store exposes the underlying page store for space accounting.
func (t *Tree) Store() pagefile.Store { return t.file }

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

// readNode returns the page's decoded node for a mutating path (updates,
// version splits, expansion), which edits it in place before writing it
// back: the resident node inside a bracket, otherwise a private copy
// parsed fresh from the buffered image.
func (t *Tree) readNode(id pagefile.PageID) (*pnode, error) {
	n, data, err := t.residentOrImage(id)
	if n != nil || err != nil {
		return n, err
	}
	return t.decodeForUpdate(id, data)
}

// residentOrImage is the first half of readNode: the bracket's resident
// node, or else the page's image through the pool — one request.
func (t *Tree) residentOrImage(id pagefile.PageID) (*pnode, []byte, error) {
	if t.failed != nil {
		return nil, nil, t.failed
	}
	if n, ok := t.resident[id]; ok {
		return n, nil, nil
	}
	data, err := t.buf.Read(id)
	return nil, data, err
}

// decodeForUpdate is the second half: the parse, and for a live node the
// running MBR, the alive count and its place in the open bracket's table.
func (t *Tree) decodeForUpdate(id pagefile.PageID, data []byte) (*pnode, error) {
	n, err := decodePNode(id, data)
	if err != nil {
		return nil, err
	}
	if n.live() {
		n.mbr = n.mbrAll()
		n.nalive = int32(n.aliveCount())
		if t.resident != nil {
			t.resident[id] = n
		}
	}
	return n, nil
}

// decodePNodeCached adapts decodePNode to the buffer's decode cache.
func decodePNodeCached(id pagefile.PageID, data []byte) (any, error) {
	return decodePNode(id, data)
}

// readShared returns the page's decoded node through the buffer's decode
// cache: repeat visits of an unchanged page — even across the cold-cache
// Reset between queries — skip the parse. The node is shared; callers
// must not mutate it. I/O accounting is identical to readNode. Inside a
// bracket a resident node is ahead of its page and is returned as it is.
func (t *Tree) readShared(id pagefile.PageID) (*pnode, error) {
	if t.failed != nil {
		return nil, t.failed
	}
	if n, ok := t.resident[id]; ok {
		return n, nil
	}
	v, err := t.buf.ReadDecoded(id, decodePNodeCached)
	if err != nil {
		return nil, err
	}
	return v.(*pnode), nil
}

// QueryView returns a read-only view of the tree: same pages, same root
// log, same options, but a private buffer pool (and decode cache) over
// the shared page file. Views answer queries concurrently with each other
// and with the parent as long as nobody mutates the tree. Using a view
// for updates is a misuse.
func (t *Tree) QueryView() *Tree {
	cp := *t
	cp.buf = pagefile.NewBuffer(t.file, t.opts.BufferPages)
	cp.encBuf = nil
	cp.path = nil
	cp.copies = nil
	cp.ks = rsplit.Scratch[pentry, geom.Rect]{}
	cp.growth = nil
	cp.slots = nil
	cp.walk = treewalk.Scratch{}
	cp.kept, cp.keptLocated = nil, nil
	return &cp
}

func (t *Tree) writeNode(n *pnode) error {
	if len(n.entries) > t.opts.MaxEntries {
		return fmt.Errorf("pprtree: node %d has %d entries, exceeding capacity %d",
			n.id, len(n.entries), t.opts.MaxEntries)
	}
	if t.resident != nil {
		if n.live() {
			n.dirty = true
			t.resident[n.id] = n
			return nil
		}
		delete(t.resident, n.id)
	}
	return t.writePage(n)
}

func (t *Tree) writePage(n *pnode) error {
	t.encBuf = n.encode(t.encBuf)
	return t.buf.Write(n.id, t.encBuf)
}

// Batch runs fn inside a write-back bracket (see Tree): the table is open
// for exactly this call and flushed before it returns, and a failure of
// fn or of the flush poisons the tree. A Batch inside fn runs in the
// bracket already open.
func (t *Tree) Batch(fn func() error) error {
	if t.failed != nil {
		return t.failed
	}
	if t.resident != nil {
		return fn()
	}
	err := t.openBracket()
	if err == nil {
		err = fn()
	}
	if err == nil {
		err = t.flushResident()
	}
	if err == nil {
		t.kept, t.keptLocated = t.resident, t.located
	}
	t.resident, t.located = nil, nil
	if err != nil {
		t.failed = fmt.Errorf("pprtree: tree unusable after failed write-back bracket: %w", err)
	}
	return err
}

// openBracket opens the table and the locator the last bracket kept, or
// fresh ones: empty over a tree with no alive record, else filled by one
// walk of the live tree (locateBelow).
func (t *Tree) openBracket() error {
	if t.kept != nil {
		t.resident, t.located = t.kept, t.keptLocated
		t.dropKept()
		return nil
	}
	t.resident = make(map[pagefile.PageID]*pnode)
	t.located = make(map[uint64]recLoc)
	if t.alive == 0 {
		return nil
	}
	_, err := t.locateBelow(t.liveRoot().page)
	return err
}

// dropKept forgets what the last bracket kept.
func (t *Tree) dropKept() { t.kept, t.keptLocated = nil, nil }

// flushResident writes the bracket's dirty nodes in ascending page-id
// order and marks them clean.
func (t *Tree) flushResident() error {
	var dirty []*pnode
	for _, n := range t.resident {
		if n.dirty {
			dirty = append(dirty, n)
		}
	}
	slices.SortFunc(dirty, func(a, b *pnode) int { return cmp.Compare(a.id, b.id) })
	for _, n := range dirty {
		if err := t.writePage(n); err != nil {
			return err
		}
		n.dirty = false
	}
	return nil
}

func (t *Tree) advance(time int64) error {
	if t.failed != nil {
		return t.failed
	}
	if time < t.now {
		return fmt.Errorf("pprtree: update at %d before current time %d (partially persistent structures are append-only in time)", time, t.now)
	}
	t.now = time
	if t.resident == nil {
		t.dropKept() // a write-through update leaves them behind its pages
	}
	return nil
}
