package pagefile

import (
	"sync"
	"sync/atomic"
)

// cacheEntryOverhead approximates what an entry costs beyond its node's
// one-page charge (the entry itself and the node's headers), so the byte
// budget stays honest on small pages. The slots are not charged: a slot
// table costs 8 bytes a page of every wrapped store, outside the budget.
const cacheEntryOverhead = 96

// cacheEntry is one resident node: the decoded form some reader parsed
// from its image, and the reference bit the clock hand reads.
type cacheEntry struct {
	decoded any
	ref     atomic.Bool
}

// slotTable is one wrapped store's part of the cache: a slot per page the
// store had allocated when it was wrapped, indexed by page id, so a
// lookup needs no key. gen is the generation Retire drops it with; cost
// is what each of its entries is charged (one page plus overhead).
type slotTable struct {
	gen     uint64
	cost    int64
	slots   []atomic.Pointer[cacheEntry]
	retired atomic.Bool
}

// SharedCacheStats is a point-in-time snapshot of a SharedCache's
// counters. DecodeHits/DecodeMisses count decoded-node lookups; Evictions
// counts entries pushed out by the byte budget (generation retirement is
// not an eviction).
type SharedCacheStats struct {
	DecodeHits   int64 `json:"decode_hits"`
	DecodeMisses int64 `json:"decode_misses"`
	Evictions    int64 `json:"evictions"`
	Entries      int   `json:"entries"`
	Bytes        int64 `json:"bytes"`
	Budget       int64 `json:"budget"`
}

// SharedCache is a cache of decoded nodes over frozen page stores — the
// serving layer's shared warm tier. Opened containers are immutable, so a
// node parsed by one session of a snapshot serves every session (it is
// Buffer.ReadDecoded's only cache of those nodes, consulted before the
// store, so a warm generation reads no page).
//
// WrapStore gives each store a slot table, one slot per page, tagged with
// the snapshot's generation: snapshots, and the old and new generation
// of a hot-swap, never share a table, and Retire drops a generation's
// tables once its last lease drains. One byte count covers every table,
// and only a publish that takes it over the budget takes the mutex, to
// run a clock hand over the tables (second chance, see evict). Run from
// one goroutine, Stats().Bytes <= Budget() after every publish.
//
// All methods are safe for concurrent use. A nil *SharedCache is valid
// everywhere and behaves as "no cache".
type SharedCache struct {
	budget                  int64
	bytes, entries          atomic.Int64
	hits, misses, evictions atomic.Int64

	// mu guards the tables, their slot count and the clock hand, which
	// points at slot of tables[table]. A hit never takes it.
	mu     sync.Mutex
	tables []*slotTable
	nslots int
	hand   struct{ table, slot int }
}

// NewSharedCache creates a cache with the given total byte budget;
// budgets <= 0 return nil (no cache), which every method tolerates.
func NewSharedCache(budgetBytes int64) *SharedCache {
	if budgetBytes <= 0 {
		return nil
	}
	return &SharedCache{budget: budgetBytes}
}

// Budget returns the configured total byte budget (0 for a nil cache).
func (c *SharedCache) Budget() int64 {
	if c == nil {
		return 0
	}
	return c.budget
}

// charge counts n entries of t in (n > 0) or out (n < 0).
func (c *SharedCache) charge(t *slotTable, n int64) {
	c.bytes.Add(n * t.cost)
	c.entries.Add(n)
}

// evict runs the clock hand until the cache is within its budget: an
// entry whose reference bit is set has it cleared and is passed over,
// any other is evicted. A set bit buys one pass per eviction, so the
// second turn evicts whatever it meets and an eviction ends within the
// budget, but for entries published behind the hand, whose publishers
// evict in turn.
func (c *SharedCache) evict() {
	c.mu.Lock()
	defer c.mu.Unlock()
	turn := c.nslots + len(c.tables)
	for step := 0; step < 2*turn && c.bytes.Load() > c.budget; step++ {
		if c.hand.table >= len(c.tables) {
			c.hand.table = 0
		}
		t := c.tables[c.hand.table]
		if c.hand.slot >= len(t.slots) {
			c.hand.table++
			c.hand.slot = 0
			continue
		}
		s := &t.slots[c.hand.slot]
		c.hand.slot++
		if e := s.Load(); e == nil || step < turn && e.ref.Swap(false) {
			continue
		}
		// Under mu only a publish fills a slot, so the entry is still
		// the one just loaded.
		s.Store(nil)
		c.charge(t, -1)
		c.evictions.Add(1)
	}
}

// Retire drops every table of the given generation, releasing its share
// of the budget promptly. Call it when the generation's last lease has
// drained (no reader can repopulate it afterwards); a store wrapped
// under another generation never had those tables to look in.
func (c *SharedCache) Retire(gen uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.tables[:0]
	for _, t := range c.tables {
		if t.gen != gen {
			kept = append(kept, t)
			continue
		}
		t.retired.Store(true)
		for j := range t.slots {
			if t.slots[j].Swap(nil) != nil {
				c.charge(t, -1)
			}
		}
		c.nslots -= len(t.slots)
	}
	clear(c.tables[len(kept):])
	c.tables, c.hand.table, c.hand.slot = kept, 0, 0
}

// EntriesForGen counts the resident entries of one generation — a
// test/debugging helper for asserting prompt retirement.
func (c *SharedCache) EntriesForGen(gen uint64) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.tables {
		for j := range t.slots {
			if t.gen == gen && t.slots[j].Load() != nil {
				n++
			}
		}
	}
	return n
}

// Stats returns a point-in-time snapshot of the cache counters and
// residency.
func (c *SharedCache) Stats() SharedCacheStats {
	if c == nil {
		return SharedCacheStats{}
	}
	return SharedCacheStats{
		DecodeHits:   c.hits.Load(),
		DecodeMisses: c.misses.Load(),
		Evictions:    c.evictions.Load(),
		Entries:      int(c.entries.Load()),
		Bytes:        c.bytes.Load(),
		Budget:       c.budget,
	}
}

// CacheCounters accumulates one consumer's (typically one snapshot's)
// shared-tier traffic: requests a decode in the tier answered
// (SharedHits, a view's own repeat visits included), page images fetched
// from the backing store (StoreReads) and nodes parsed from them
// (Decodes). Safe for concurrent use.
type CacheCounters struct {
	sharedHits, storeReads, decodes atomic.Int64
}

// CacheCounterValues is a point-in-time copy of CacheCounters.
type CacheCounterValues struct {
	SharedHits int64
	StoreReads int64
	Decodes    int64
}

// Load returns the accumulated totals (zeros for a nil receiver).
func (c *CacheCounters) Load() CacheCounterValues {
	if c == nil {
		return CacheCounterValues{}
	}
	return CacheCounterValues{
		SharedHits: c.sharedHits.Load(),
		StoreReads: c.storeReads.Load(),
		Decodes:    c.decodes.Load(),
	}
}

// sharesVersion is the one rule for what the shared tier holds: frozen
// (version 0) pages. A page that can still change keeps its decode in its
// buffer's private map; cross-buffer invalidation is not worth it.
func sharesVersion(version uint64) bool { return version == 0 }

// SharedDecodeCache is implemented by stores that can share decoded page
// forms across buffers (the shared-cache store wrapper). Buffer wires it
// into ReadDecoded automatically as the only decode cache of the pages it
// shares (sharesVersion): a hit answers a pool miss without reading the
// store, and a miss's fresh decode is published, not kept privately.
type SharedDecodeCache interface {
	// CachedDecode returns the shared decoded form of the page, if any.
	CachedDecode(id PageID, version uint64) (any, bool)
	// PublishDecode shares a freshly decoded form with other buffers.
	PublishDecode(id PageID, version uint64, v any)
}

// cachedStore puts the shared cache beside a frozen backing store:
// decoded nodes are shared through the SharedDecodeCache interface, in
// the store's own slot table, and the page reads that still reach the
// store are counted. Everything else forwards.
type cachedStore struct {
	Store
	cache    *SharedCache
	table    *slotTable
	counters *CacheCounters
}

// WrapStore interposes the cache in front of a frozen store, with a slot
// table of its own for the store's allocated pages, dropped by
// Retire(gen). Wrap each store of one open once: a second wrap of the
// same store starts an empty table. ext is unused. counters may be nil;
// when non-nil it receives the per-consumer hit/read split (share one
// CacheCounters across the extents of one snapshot). A nil cache returns
// s unchanged.
func (c *SharedCache) WrapStore(gen uint64, ext uint32, s Store, counters *CacheCounters) Store {
	if c == nil {
		return s
	}
	t := &slotTable{
		gen:   gen,
		cost:  int64(s.PageSize()) + cacheEntryOverhead,
		slots: make([]atomic.Pointer[cacheEntry], s.NumAllocated()),
	}
	c.mu.Lock()
	c.tables = append(c.tables, t)
	c.nslots += len(t.slots)
	c.mu.Unlock()
	return &cachedStore{Store: s, cache: c, table: t, counters: counters}
}

// ReadPage implements Store: forwards, counting the reads that succeed.
func (cs *cachedStore) ReadPage(id PageID, dst []byte) error {
	if err := cs.Store.ReadPage(id, dst); err != nil {
		return err
	}
	if cs.counters != nil {
		cs.counters.storeReads.Add(1)
	}
	return nil
}

// ReadOnly forwards the underlying store's read-only contract, so the
// facade's ErrReadOnly detection sees through the wrapper.
func (cs *cachedStore) ReadOnly() bool {
	ro, ok := cs.Store.(interface{ ReadOnly() bool })
	return ok && ro.ReadOnly()
}

// CachedDecode implements SharedDecodeCache: one atomic load of the
// page's slot, and its entry's reference bit set. The bit is written
// only when clear, so a hot entry is not written on every hit. Only
// frozen (version 0) pages are shared; serving stores are always frozen.
func (cs *cachedStore) CachedDecode(id PageID, version uint64) (any, bool) {
	if !sharesVersion(version) {
		return nil, false
	}
	if slots := cs.table.slots; int(id) < len(slots) {
		if e := slots[id].Load(); e != nil {
			if !e.ref.Load() {
				e.ref.Store(true)
			}
			cs.cache.hits.Add(1)
			if cs.counters != nil {
				cs.counters.sharedHits.Add(1)
			}
			return e.decoded, true
		}
	}
	cs.cache.misses.Add(1)
	return nil, false
}

// PublishDecode implements SharedDecodeCache: a compare-and-swap into the
// page's slot, unless it holds a node already, and an eviction if that
// takes the cache over its budget. Decoded values are shared across
// goroutines; they must be treated as immutable, which is already the
// Buffer.ReadDecoded contract.
func (cs *cachedStore) PublishDecode(id PageID, version uint64, v any) {
	if !sharesVersion(version) {
		return
	}
	if cs.counters != nil {
		cs.counters.decodes.Add(1)
	}
	c, t := cs.cache, cs.table
	e := &cacheEntry{decoded: v}
	if int(id) >= len(t.slots) || !t.slots[id].CompareAndSwap(nil, e) {
		return
	}
	c.charge(t, 1)
	if t.retired.Load() {
		// Retire swept t or is sweeping it. No hand reaches t any more,
		// so e would hold budget for good: whichever takes it out
		// uncharges it.
		if t.slots[id].CompareAndSwap(e, nil) {
			c.charge(t, -1)
		}
		return
	}
	if c.bytes.Load() > c.budget {
		c.evict()
	}
}

var (
	_ Store             = (*cachedStore)(nil)
	_ SharedDecodeCache = (*cachedStore)(nil)
)
