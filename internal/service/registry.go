package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	stx "stindex"

	"stindex/internal/pagefile"
	"stindex/internal/sharding"
)

// ErrUnknownSnapshot is returned by Acquire and the query paths when the
// requested snapshot name is not (or no longer) registered.
var ErrUnknownSnapshot = errors.New("service: unknown snapshot")

// Registry is the snapshot registry: a named collection of opened index
// containers that can be loaded, hot-swapped and dropped atomically while
// queries are in flight. Every snapshot is refcounted — the registry
// holds one reference while the snapshot is current, and every Acquire
// takes another — so a swap or drop retires the old snapshot immediately
// (no new queries can reach it) but closes its container file only after
// the last in-flight lease is released. That is what makes hot-swapping
// safe: readers never observe a closed store.
//
// All methods are safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	snaps map[string]*Snapshot
	gen   atomic.Uint64

	// cache is the shared decoded-node cache over every loaded container
	// (nil = no shared cache); openBackend is the container read flavour.
	cache       *pagefile.SharedCache
	openBackend stx.Backend
}

// RegistryConfig configures the registry's serving read path.
type RegistryConfig struct {
	// CacheBytes is the budget for decoded nodes shared across sessions:
	// a node one session parsed is published to one registry-wide cache,
	// in the slot table of its snapshot generation's store (an entry is
	// charged one page), with second-chance eviction against this byte
	// budget, and every session's view, the publisher's included, is
	// served from it without reading the page. The cache is then the
	// views' only decode cache, so this budget bounds the decoded nodes a
	// snapshot's views hold.
	// <= 0 disables the shared cache: each view keeps a private decode of
	// every page it visits and reads the page on every miss of its
	// buffer pool.
	CacheBytes int64
	// OpenBackend is the page-read flavour Load opens containers with:
	// stx.BackendDisk, the lazy window (also the zero value), or
	// stx.BackendMmap, the mapping.
	OpenBackend stx.Backend
}

// NewRegistryConfig creates an empty snapshot registry with the given
// read-path configuration.
func NewRegistryConfig(cfg RegistryConfig) *Registry {
	return &Registry{
		snaps:       make(map[string]*Snapshot),
		cache:       pagefile.NewSharedCache(cfg.CacheBytes),
		openBackend: cfg.OpenBackend,
	}
}

// Cache returns the registry's shared decoded-node cache (nil when disabled) —
// for metrics and tests.
func (r *Registry) Cache() *pagefile.SharedCache { return r.cache }

// Snapshot is one registered index: a frozen, queryable container plus
// its refcount and per-snapshot serving statistics. Snapshots are
// created by Load/Publish and only ever handed out through leases.
type Snapshot struct {
	name string
	gen  uint64 // registry-wide unique; bumped on every load/swap
	path string // source container, "" for Publish
	idx  stx.Index
	// refs counts the registry's own reference plus one per live lease;
	// the container closes when it reaches zero.
	refs    atomic.Int64
	queries atomic.Int64
	stats   pagefile.AtomicStats
	// cache/cstats tie a loaded snapshot to the registry's shared page
	// cache: cstats accumulates this snapshot's shared-hit/store-read
	// split, and release retires the generation's cache entries once the
	// last lease drains. Both nil for Publish-ed or cache-less snapshots.
	cache  *pagefile.SharedCache
	cstats *pagefile.CacheCounters
}

// Name returns the snapshot's registry name.
func (s *Snapshot) Name() string { return s.name }

// Gen returns the snapshot's registry-wide unique generation; a swap
// under the same name installs a snapshot with a higher generation.
func (s *Snapshot) Gen() uint64 { return s.gen }

// recordQuery folds one query's buffer traffic into the snapshot's
// serving statistics.
func (s *Snapshot) recordQuery(delta pagefile.Stats) {
	s.queries.Add(1)
	s.stats.Add(delta)
}

// release drops one reference, closing the container when the last
// holder lets go. Close errors are returned to the releasing caller —
// in practice the last lease or the retiring registry operation.
// Retiring also drops the generation's shared-cache tables: this runs
// strictly after the last lease released, so no in-flight reader can
// repopulate them, and no later generation's stores ever looked in them.
func (s *Snapshot) release() error {
	if s.refs.Add(-1) == 0 {
		err := stx.CloseIndex(s.idx)
		s.cache.Retire(s.gen)
		return err
	}
	return nil
}

// Lease is a counted reference to a snapshot. A lease pins the
// snapshot's container open: hot-swaps and drops retire the snapshot but
// its pages stay readable until Release. Leases are cheap (one atomic
// add) and must be released exactly once.
type Lease struct {
	snap *Snapshot
}

// Snapshot returns the leased snapshot.
func (l *Lease) Snapshot() *Snapshot { return l.snap }

// Index returns the leased snapshot's underlying index. Callers must
// treat it as read-only and must not retain it past Release.
func (l *Lease) Index() stx.Index { return l.snap.idx }

// View returns a private read-only view through which this lease's
// holder may query: its own buffer pool and decode cache over the
// snapshot's shared frozen store. The view must not outlive the
// snapshot's generation — cache it keyed by (name, gen), as Session
// does.
func (l *Lease) View() stx.Index { return l.snap.idx.QueryView() }

// Release returns the lease's reference. The error is non-nil only when
// this release was the one that closed a retired snapshot's container
// and the close failed.
func (l *Lease) Release() error {
	return l.snap.release()
}

// Acquire leases the named snapshot.
func (r *Registry) Acquire(name string) (*Lease, error) {
	r.mu.RLock()
	snap, ok := r.snaps[name]
	if ok {
		// The registry's own reference is still held (retirement removes
		// the map entry first, under the write lock), so the count is
		// necessarily >= 1 here and the snapshot cannot close under us.
		snap.refs.Add(1)
	}
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSnapshot, name)
	}
	return &Lease{snap: snap}, nil
}

// Load opens the container at path lazily and installs it under name,
// atomically replacing (hot-swapping) any snapshot previously registered
// under that name. The replaced snapshot is retired: new queries go to
// the new snapshot immediately, in-flight leases finish on the old one,
// and its container file closes when the last lease is released.
//
// If path is a shard manifest (sniffed by magic) the snapshot is opened
// as a scatter-gather Sharded index over every shard container the
// manifest names. Every shard's extents get their slot tables under the
// snapshot's generation, within the cache's one byte budget.
func (r *Registry) Load(name, path string) (*Snapshot, error) {
	// The generation is allocated before the container opens so the
	// shared-cache wrapper can tag the extent stores' tables with it.
	gen := r.gen.Add(1)
	opts, cstats := r.openOptions(gen)
	var idx stx.Index
	var err error
	if sharding.IsManifest(path) {
		idx, err = OpenSharded(path, opts)
	} else {
		idx, err = stx.OpenIndexOptions(path, opts)
	}
	if err != nil {
		// Nothing was installed; drop the tables the open registered,
		// the shards' before a failing one included.
		r.cache.Retire(gen)
		return nil, err
	}
	return r.install(name, path, idx, gen, cstats)
}

// openOptions builds the container open options for a snapshot of
// generation gen: the registry's read backend plus (when the shared
// cache is on) a store wrapper that gives each of the container's
// extents a slot table under gen in the shared cache, with cstats
// accumulating the snapshot's shared hits, store reads and decodes.
func (r *Registry) openOptions(gen uint64) (stx.OpenOptions, *pagefile.CacheCounters) {
	var cstats *pagefile.CacheCounters
	var wrap stx.StoreWrapper
	if r.cache != nil {
		cstats = &pagefile.CacheCounters{}
		wrap = func(s pagefile.Store) pagefile.Store {
			return r.cache.WrapStore(gen, 0, s, cstats)
		}
	}
	return stx.OpenOptions{Backend: r.openBackend, Wrap: wrap}, cstats
}

// PublishOpener installs a caller-built snapshot with Load's cache
// participation: the registry allocates the generation and hands open
// the cache-wrapping OpenOptions, so any container the callback opens
// through them shares its decoded nodes through the shared cache under
// its generation exactly like a Load-ed snapshot — including retirement
// of its cache tables when the swap drains. The ingestion pipeline uses this to publish its combined
// frozen+live views without giving up the cache on the frozen part.
//
// The callback owns nothing on error; on success the registry takes
// ownership of the returned index (CloseIndex on retirement), with the
// same hot-swap semantics as Load.
func (r *Registry) PublishOpener(name string, open func(stx.OpenOptions) (stx.Index, error)) (*Snapshot, error) {
	gen := r.gen.Add(1)
	opts, cstats := r.openOptions(gen)
	idx, err := open(opts)
	if err != nil {
		// Nothing was installed; drop any cache tables the callback's
		// partial open registered under this generation.
		r.cache.Retire(gen)
		return nil, err
	}
	return r.install(name, "", idx, gen, cstats)
}

// Publish installs an already-built or eagerly decoded index under name,
// with the same hot-swap semantics as Load. The registry takes ownership:
// the index is closed (CloseIndex) when the snapshot is retired and
// drained. The index must be frozen — no concurrent mutation while
// registered.
func (r *Registry) Publish(name string, idx stx.Index) (*Snapshot, error) {
	// Published indexes were not opened through the registry, so their
	// stores carry no cache wrapper: each view decodes for itself.
	return r.install(name, "", idx, r.gen.Add(1), nil)
}

func (r *Registry) install(name, path string, idx stx.Index, gen uint64, cstats *pagefile.CacheCounters) (*Snapshot, error) {
	snap := &Snapshot{
		name:   name,
		gen:    gen,
		path:   path,
		idx:    idx,
		cstats: cstats,
	}
	if cstats != nil {
		snap.cache = r.cache
	}
	snap.refs.Store(1) // the registry's reference
	r.mu.Lock()
	old := r.snaps[name]
	r.snaps[name] = snap
	r.mu.Unlock()
	if old != nil {
		if err := old.release(); err != nil {
			return snap, fmt.Errorf("service: closing replaced snapshot %q: %w", name, err)
		}
	}
	return snap, nil
}

// Drop retires the named snapshot: it disappears from the registry
// immediately and its container closes once the last in-flight lease is
// released.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	snap, ok := r.snaps[name]
	if ok {
		delete(r.snaps, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSnapshot, name)
	}
	return snap.release()
}

// Names returns the registered snapshot names, unordered.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.snaps))
	for name := range r.snaps {
		names = append(names, name)
	}
	return names
}

// SnapshotInfo is one registry entry's externally visible state.
//
// Hits and Reads are the paper's accounting: page requests that found
// the page in a session's private buffer pool, and requests that missed
// it. What moved is reported beside them when the shared cache is on:
// StoreReads are the page images actually fetched from the backing store
// and Decodes the nodes parsed from them — both happen only for a page
// whose node is not in the shared cache, so about once per page per
// generation while the budget keeps the node. SharedHits counts the
// requests the cache answered, a view's own repeat visits included, so on
// a Load-ed snapshot SharedHits + Decodes = Hits + Reads (a live name's
// live-tree traffic is in Hits + Reads only). HitRate is the fraction of
// page requests served without touching the backing store,
// 1 − StoreReads / (Hits + Reads); a snapshot opened without the shared
// cache has no store-read counter and reports its pool's rate,
// Hits / (Hits + Reads), which says the same thing there: without the
// cache every pool miss reads the store.
type SnapshotInfo struct {
	Name    string `json:"name"`
	Gen     uint64 `json:"gen"`
	Kind    string `json:"kind"`
	Path    string `json:"path,omitempty"`
	Records int    `json:"records"`
	Pages   int    `json:"pages"`
	Bytes   int64  `json:"bytes"`
	Leases  int64  `json:"leases"` // live leases, excluding the registry's own reference
	Queries int64  `json:"queries"`
	// Reads and Hits are the private buffer-pool split.
	Reads int64 `json:"reads"`
	Hits  int64 `json:"hits"`
	// StoreReads are page images fetched; SharedHits are requests a node
	// in the shared cache answered.
	SharedHits int64 `json:"shared_hits"`
	StoreReads int64 `json:"store_reads"`
	// Decodes are node parses actually performed.
	Decodes int64   `json:"decodes"`
	HitRate float64 `json:"hit_rate"`
	// Sharded snapshots only: the scatter-gather totals. ShardedQueries
	// counts fan-out queries; each entry of Shards records how many of
	// them that shard served (Queries) or was pruned from (Pruned), so
	// Queries + Pruned == ShardedQueries holds per shard.
	ShardedQueries int64       `json:"sharded_queries,omitempty"`
	Shards         []ShardStat `json:"shards,omitempty"`
}

func (s *Snapshot) info() SnapshotInfo {
	st := s.stats.Load()
	cv := s.cstats.Load()
	info := SnapshotInfo{
		Name:       s.name,
		Gen:        s.gen,
		Kind:       s.idx.Kind(),
		Path:       s.path,
		Records:    s.idx.Records(),
		Pages:      s.idx.Pages(),
		Bytes:      s.idx.Bytes(),
		Leases:     s.refs.Load() - 1,
		Queries:    s.queries.Load(),
		Reads:      st.Reads,
		Hits:       st.Hits,
		SharedHits: cv.SharedHits,
		StoreReads: cv.StoreReads,
		Decodes:    cv.Decodes,
	}
	info.HitRate = st.HitRate()
	if total := st.Hits + st.Reads; s.cstats != nil && total > 0 {
		info.HitRate = 1 - float64(cv.StoreReads)/float64(total)
	}
	if sh, ok := s.idx.(*Sharded); ok {
		info.ShardedQueries = sh.Queries()
		info.Shards = sh.ShardStats()
	}
	return info
}

// List returns the state of every registered snapshot, unordered.
func (r *Registry) List() []SnapshotInfo {
	r.mu.RLock()
	snaps := make([]*Snapshot, 0, len(r.snaps))
	for _, s := range r.snaps {
		snaps = append(snaps, s)
	}
	r.mu.RUnlock()
	infos := make([]SnapshotInfo, len(snaps))
	for i, s := range snaps {
		infos[i] = s.info()
	}
	return infos
}

// Close drops every snapshot. In-flight leases still drain as usual; the
// first close error (if any) is returned.
func (r *Registry) Close() error {
	var first error
	for _, name := range r.Names() {
		if err := r.Drop(name); err != nil && first == nil && !errors.Is(err, ErrUnknownSnapshot) {
			first = err
		}
	}
	return first
}
