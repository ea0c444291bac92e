package stindex

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"stindex/internal/geom"
	"stindex/internal/owner"
	"stindex/internal/pagefile"
	"stindex/internal/pprtree"
	"stindex/internal/rstar"
)

// ErrReadOnly is returned by every mutating facade method — Append,
// Observe, Finish, FinishAll — when the index was opened read-only from a
// container file (OpenIndex). Test with errors.Is: lower layers wrap it.
// Queries, statistics, Describe, Save/Encode and QueryView remain fully
// usable on a read-only index.
var ErrReadOnly = pagefile.ErrReadOnly

// readOnlyStore reports whether a page store rejects mutation (the
// frozen extent store of an opened container).
func readOnlyStore(s pagefile.Store) bool {
	ro, ok := s.(interface{ ReadOnly() bool })
	return ok && ro.ReadOnly()
}

// fileHandle guards the container file of a lazily opened index; it is
// empty for built indexes and query views. Every persisted index kind
// embeds one, which is what gives it Close.
type fileHandle struct {
	mu sync.Mutex
	c  io.Closer
}

func (h *fileHandle) set(c io.Closer) {
	h.mu.Lock()
	h.c = c
	h.mu.Unlock()
}

// Close releases the container file of a lazily opened index. Built
// indexes and query views hold no file, so Close is a no-op for them.
// Close is idempotent and safe to call concurrently — the first call
// closes the file, every later one returns nil — so CloseIndex can be
// called from deferred cleanup paths and serving-layer refcount drains
// without coordinating who closes last. Close only the parent handle,
// never while views are still querying. An index opened from disk is
// read-only: its mutating methods fail with ErrReadOnly.
func (h *fileHandle) Close() error {
	h.mu.Lock()
	c := h.c
	h.c = nil
	h.mu.Unlock()
	if c == nil {
		return nil
	}
	return c.Close()
}

// Backend names the open flavour of a saved container: how
// OpenIndexOptions reads its page extents, BackendDisk (the zero value)
// or BackendMmap. Every build writes its pages to memory, and the eager
// load of a container is DecodeIndex. The flavour never affects query
// results or I/O statistics. Backend.Check refuses any other name.
type Backend = pagefile.Backend

const (
	// BackendDisk leaves the pages in the container file and reads each
	// lazily, one positioned read a page: the pread window.
	BackendDisk = pagefile.BackendDisk
	// BackendMmap memory-maps the container's page extents: page reads
	// cost zero syscalls, the kernel's page cache is the disk buffer.
	// Falls back to the pread window where mmap is unavailable.
	BackendMmap = pagefile.BackendMmap
)

// Codec names the page-extent codec a container is saved with. Every
// save writes compressed pages; identity containers, which older builds
// wrote, still open but are decode-only. The codec never affects query
// results or I/O statistics — decoded pages, tree layout and buffer
// accounting are bit-identical; only the at-rest bytes differ. A
// container always opens through the codec named in its own header.
type Codec string

const (
	// CodecDefault is compressed.
	CodecDefault Codec = ""
	// CodecCompressed stores structurally compressed pages: delta-encoded
	// MBR coordinates and varint counts/refs/intervals (the STPC extent
	// format).
	CodecCompressed Codec = "compressed"
)

// errDecodeOnlyCodec is what saving with any codec but compressed
// reports.
var errDecodeOnlyCodec = errors.New("identity is decode-only and new saves are compressed")

// Check reports whether containers can be saved with c.
func (c Codec) Check() error {
	if c == CodecDefault || c == CodecCompressed {
		return nil
	}
	return fmt.Errorf("stindex: cannot save with codec %q: %w", string(c), errDecodeOnlyCodec)
}

// IOStats reports buffer-pool traffic: Reads and Writes are disk
// accesses, Hits were served from the pool; IO is their total.
type IOStats = pagefile.Stats

// Index is a queryable historical spatiotemporal index. Every
// implementation answers object-level queries (split records are
// transparently de-duplicated) and accounts every disk access through a
// small LRU buffer pool, which ResetBuffer empties — the paper's
// cold-cache measurement discipline.
type Index interface {
	// Snapshot returns the IDs of the objects intersecting r at instant t,
	// distinct and in ascending order.
	Snapshot(r Rect, t int64) ([]int64, error)
	// Range returns the IDs of the objects intersecting r at some instant
	// of the half-open interval iv, distinct and in ascending order.
	Range(r Rect, iv Interval) ([]int64, error)
	// Nearest returns the k objects alive at instant t whose rectangles
	// are nearest to the point (x, y), in ascending (Dist2, ObjectID)
	// order — see Neighbor for the pinned tie-breaking rule.
	Nearest(x, y float64, t int64, k int) ([]Neighbor, error)
	// Trajectory returns the objects whose path crossed r at some instant
	// of iv, each with the number of its split pieces that matched, in
	// ascending ObjectID order.
	Trajectory(r Rect, iv Interval) ([]TrajectoryHit, error)
	// ResetBuffer empties the LRU pool and zeroes the I/O counters.
	ResetBuffer()
	// IOStats returns the traffic since the last reset.
	IOStats() IOStats
	// Pages returns the number of live disk pages the index occupies.
	Pages() int
	// Bytes returns the index's disk footprint.
	Bytes() int64
	// Records returns the number of MBR records indexed.
	Records() int
	// Kind names the index implementation: "ppr", "rstar", "hr" or
	// "stream-ppr" for the structures, and a name of their own for the
	// wrappers ("sharded", "live"). A view has its parent's kind.
	Kind() string
	QueryViewer
}

// QueryViewer is the one method by which every index hands out
// independent read-only views of itself: same pages, same layout, but a
// private buffer pool per view over the shared page file (and a private
// decode cache, unless the store carries a shared decode tier). An index
// is not safe for concurrent use, but any number of views may answer
// queries concurrently as long as nobody writes the index while a view
// is open — this is what MeasureWorkloadParallel, the serving sessions
// and the oracle's diff pass fan out over. Views must only be used for
// queries; mutating through a view is a misuse.
type QueryViewer interface {
	// QueryView returns a new independent read-only view of the index.
	QueryView() Index
}

// PPROptions configures BuildPPR. The zero value reproduces the paper's
// setup: 50-entry nodes, 10-page LRU buffer, P_svo = 0.8, P_svu = 0.4;
// the page size (4 KiB) and P_version = 0.22 are always the paper's.
type PPROptions struct {
	MaxEntries  int
	PSvo        float64
	PSvu        float64
	BufferPages int
}

// PPRIndex is a partially persistent R-tree over the record set.
type PPRIndex struct {
	treeIndex
	tree *pprtree.Tree
}

func newPPRIndex(tree *pprtree.Tree, owners *owner.Table) *PPRIndex {
	return &PPRIndex{
		treeIndex: treeIndex{search: tree, owners: owners, kind: "ppr"},
		tree:      tree,
	}
}

// ownersOf numbers the owners of a record slice (record i carries
// reference i) by the rank of their ids.
func ownersOf(records []Record) *owner.Table {
	t := owner.ByRank(len(records), func(r int) int64 { return records[r].ObjectID })
	return &t
}

// BuildPPR indexes the records with a partially persistent R-tree,
// replaying their insertions and deletions in chronological order.
func BuildPPR(records []Record, opts PPROptions) (*PPRIndex, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("stindex: no records to index")
	}
	recs := make([]pprtree.Record, len(records))
	for i, r := range records {
		recs[i] = pprtree.Record{
			Rect:     r.Rect.internal(),
			Interval: r.Interval.internal(),
			Ref:      uint64(i),
		}
	}
	tree, err := pprtree.BuildRecords(pprtree.Options{
		MaxEntries:  opts.MaxEntries,
		PSvo:        opts.PSvo,
		PSvu:        opts.PSvu,
		BufferPages: opts.BufferPages,
	}, recs)
	if err != nil {
		return nil, err
	}
	return newPPRIndex(tree, ownersOf(records)), nil
}

// Append indexes additional records into an existing PPR index. Partial
// persistence keeps history closed: every appended record's lifetime must
// begin at or after the index's current time. Useful for chunked builds
// and for extending a reloaded index as the evolution continues. On an
// index opened read-only from a container, Append fails with ErrReadOnly.
// The appended objects' ids may interleave with the index's, so the owner
// table is numbered afresh by rank.
func (x *PPRIndex) Append(records []Record) error {
	if readOnlyStore(x.tree.Store()) {
		return fmt.Errorf("stindex: appending to opened index: %w", ErrReadOnly)
	}
	recs := make([]pprtree.Record, len(records))
	old := x.owners
	base := old.Records()
	for i, r := range records {
		recs[i] = pprtree.Record{
			Rect:     r.Rect.internal(),
			Interval: r.Interval.internal(),
			Ref:      uint64(base + i),
		}
	}
	if err := x.tree.AppendRecords(recs); err != nil {
		return err
	}
	t := owner.ByRank(base+len(records), func(r int) int64 {
		if r < base {
			return old.IDs[old.Ord[r]]
		}
		return records[r-base].ObjectID
	})
	x.owners = &t
	return nil
}

// Tree exposes the underlying partially persistent R-tree for advanced
// inspection (validation walks, ephemeral level statistics).
func (x *PPRIndex) Tree() *pprtree.Tree { return x.tree }

// QueryView implements Index: a read-only view with its own buffer pool
// over the shared page file.
func (x *PPRIndex) QueryView() Index { return newPPRIndex(x.tree.QueryView(), x.owners) }

// RStarOptions configures BuildRStar. The node setup is always the
// paper's: 50-entry nodes on 4 KiB pages with the R* fill factor and
// reinsertion count. The zero value also gives the rest of it: a 10-page
// LRU buffer, records inserted in random order with the time axis scaled
// to the unit range.
type RStarOptions struct {
	BufferPages int
	// ShuffleSeed randomises the insertion order (the paper inserts "in
	// random order"). Same seed, same order.
	ShuffleSeed int64
	// TimeScale overrides the time-axis scaling; 0 scales the records'
	// overall horizon to the unit range.
	TimeScale float64
	// Parallelism is the worker count for the packed builder's slab
	// tiling (BuildRStarPacked): 0 = GOMAXPROCS, 1 = serial. The packed
	// tree is byte-identical for every setting. One-by-one insertion
	// (BuildRStar) is inherently sequential and ignores it.
	Parallelism int
}

// RStarIndex is a 3-dimensional R*-tree over the record set, time as the
// third axis.
type RStarIndex struct {
	treeIndex
	slab timeSlab
}

func newRStarIndex(tree *rstar.Tree, owners *owner.Table, timeScale float64) *RStarIndex {
	slab := timeSlab{Tree: tree, scale: timeScale}
	return &RStarIndex{
		treeIndex: treeIndex{search: slab, owners: owners, kind: "rstar"},
		slab:      slab,
	}
}

// unitTimeScale returns opts.TimeScale, or by default the factor that
// maps the records' overall horizon onto the unit range.
func unitTimeScale(records []Record, opts RStarOptions) float64 {
	if opts.TimeScale != 0 {
		return opts.TimeScale
	}
	lo, hi := records[0].Interval.Start, records[0].Interval.End
	for _, r := range records {
		if r.Interval.Start < lo {
			lo = r.Interval.Start
		}
		if r.Interval.End > hi {
			hi = r.Interval.End
		}
	}
	if span := hi - lo; span > 0 {
		return 1 / float64(span)
	}
	return 1
}

// BuildRStar indexes the records with a 3D R*-tree.
func BuildRStar(records []Record, opts RStarOptions) (*RStarIndex, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("stindex: no records to index")
	}
	scale := unitTimeScale(records, opts)
	tree, err := rstar.New(rstar.Options{BufferPages: opts.BufferPages})
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(opts.ShuffleSeed)).Perm(len(records))
	err = tree.Batch(func() error {
		for _, i := range order {
			r := records[i]
			if err := tree.Insert(geom.Box3FromBox(geom.NewBox(r.Rect.internal(), r.Interval.internal()), scale), uint64(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newRStarIndex(tree, ownersOf(records), scale), nil
}

// BuildRStarPacked bulk-loads the records into a packed 3D R-tree with
// the Sort-Tile-Recursive algorithm (the paper's reference [15]) instead
// of one-by-one R* insertion. The paper chose NOT to pack — "packing
// algorithms tend to cluster together objects that might be consecutive
// in order even though they may correspond to large and small intervals"
// — and this builder exists to measure that claim (it is dramatically
// faster to build, but not better to query on moving-object data).
func BuildRStarPacked(records []Record, opts RStarOptions) (*RStarIndex, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("stindex: no records to index")
	}
	scale := unitTimeScale(records, opts)
	items := make([]rstar.Item, len(records))
	for i, r := range records {
		items[i] = rstar.Item{
			Box: geom.Box3FromBox(geom.NewBox(r.Rect.internal(), r.Interval.internal()), scale),
			Ref: uint64(i),
		}
	}
	tree, err := rstar.BulkLoadSTR(rstar.Options{BufferPages: opts.BufferPages, Parallelism: opts.Parallelism}, items)
	if err != nil {
		return nil, err
	}
	return newRStarIndex(tree, ownersOf(records), scale), nil
}

// Tree exposes the underlying R*-tree for advanced inspection.
func (x *RStarIndex) Tree() *rstar.Tree { return x.slab.Tree }

// QueryView implements Index: a read-only view with its own buffer pool
// over the shared page file.
func (x *RStarIndex) QueryView() Index {
	return newRStarIndex(x.slab.QueryView(), x.owners, x.slab.scale)
}

// TimeScale returns the factor mapping time instants onto the unit range.
func (x *RStarIndex) TimeScale() float64 { return x.slab.scale }
