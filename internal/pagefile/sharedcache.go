package pagefile

import (
	"sync"
	"sync/atomic"
)

// cacheStripeCount is the number of lock stripes; a power of two so the
// stripe pick is a mask. 64 stripes keep lock contention negligible even
// with dozens of serving workers hammering one hot snapshot.
const cacheStripeCount = 64

// cacheEntryOverhead approximates the bookkeeping bytes an entry costs
// beyond its decoded node (map slot, entry struct, LRU links), so the byte
// budget stays honest on small pages.
const cacheEntryOverhead = 96

// pageKey identifies one cached page globally: the owning snapshot
// generation (registry-wide unique, bumped on every load and hot-swap),
// the extent ordinal within the snapshot (a sharded snapshot numbers the
// extents of its shard containers in turn, and their PageIDs overlap),
// and the page id. Because the generation is part of the key, a lookup
// can never return a retired generation's page to a newer one — hot-swap
// safety is structural, not a protocol.
type pageKey struct {
	gen uint64
	ext uint32
	id  PageID
}

func (k pageKey) stripe() uint32 {
	h := (uint64(k.id)+1)*0x9E3779B97F4A7C15 ^ k.gen*0xBF58476D1CE4E5B9 ^ uint64(k.ext)<<32
	h ^= h >> 29
	return uint32(h) & (cacheStripeCount - 1)
}

// cacheEntry is one resident page: the decoded form some reader parsed
// from its image, and its LRU links within the stripe.
type cacheEntry struct {
	key        pageKey
	prev, next *cacheEntry
	decoded    any
	cost       int64
}

// cacheStripe is one lock-striped shard: a map plus an intrusive LRU
// list, evicted by bytes against the stripe's share of the budget.
type cacheStripe struct {
	mu         sync.Mutex
	entries    map[pageKey]*cacheEntry
	head, tail *cacheEntry
	bytes      int64
	// hits, misses and evictions are counted under mu, which every
	// lookup holds anyway: cache-wide atomics would be one more cache
	// line every core writes on every lookup.
	hits, misses, evictions int64
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

// SharedCache is a lock-striped, generation-keyed cache of decoded nodes
// over frozen page stores — the serving layer's shared warm tier. Opened
// containers are immutable, so a node parsed by one session of a snapshot
// serves every session (it is Buffer.ReadDecoded's only cache of those
// nodes, consulted before the store, so a warm generation reads no page);
// the cache is sized by a byte budget (split evenly across stripes, a
// node charged as one page) with per-stripe LRU eviction.
//
// One SharedCache serves a whole registry: entries are keyed by
// (generation, extent, page), so concurrent snapshots — and the old and
// new generation during a hot-swap — never collide, and Retire drops a
// retired generation's entries promptly once its last lease drains.
//
// All methods are safe for concurrent use. A nil *SharedCache is valid
// everywhere and behaves as "no cache".
type SharedCache struct {
	stripeBudget int64
	stripes      [cacheStripeCount]cacheStripe
}

// NewSharedCache creates a cache with the given total byte budget;
// budgets <= 0 return nil (no cache), which every method tolerates.
func NewSharedCache(budgetBytes int64) *SharedCache {
	if budgetBytes <= 0 {
		return nil
	}
	c := &SharedCache{stripeBudget: budgetBytes / cacheStripeCount}
	if c.stripeBudget < 1 {
		c.stripeBudget = 1
	}
	for i := range c.stripes {
		c.stripes[i].entries = make(map[pageKey]*cacheEntry)
	}
	return c
}

// Budget returns the configured total byte budget (0 for a nil cache).
func (c *SharedCache) Budget() int64 {
	if c == nil {
		return 0
	}
	return c.stripeBudget * cacheStripeCount
}

func (s *cacheStripe) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheStripe) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheStripe) moveFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// evictOver drops LRU entries until the stripe is within budget, never
// evicting keep (the entry just touched).
func (s *cacheStripe) evictOver(c *SharedCache, keep *cacheEntry) {
	for s.bytes > c.stripeBudget && s.tail != nil && s.tail != keep {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
		s.bytes -= victim.cost
		s.evictions++
	}
}

// getDecoded returns the shared decoded form of k, if some reader has
// published one.
func (c *SharedCache) getDecoded(k pageKey) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := &c.stripes[k.stripe()]
	s.mu.Lock()
	e := s.entries[k]
	if e == nil {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.hits++
	s.moveFront(e)
	v := e.decoded
	s.mu.Unlock()
	return v, true
}

// putDecoded publishes the decoded form of k, charged at cost bytes
// (callers estimate with the page size — a decoded node is the same
// order of magnitude as its image). Decoded values are shared across
// goroutines; they must be treated as immutable, which is already the
// Buffer.ReadDecoded contract.
func (c *SharedCache) putDecoded(k pageKey, v any, cost int64) {
	if c == nil {
		return
	}
	cost += cacheEntryOverhead
	s := &c.stripes[k.stripe()]
	s.mu.Lock()
	e := s.entries[k]
	if e == nil {
		e = &cacheEntry{key: k, decoded: v, cost: cost}
		s.entries[k] = e
		s.pushFront(e)
		s.bytes += cost
	} else {
		s.moveFront(e)
	}
	s.evictOver(c, e)
	s.mu.Unlock()
}

// Retire drops every entry of the given generation, releasing its share
// of the budget promptly. Call it when the generation's last lease has
// drained (no reader can repopulate it afterwards); the generation key
// already guarantees no other generation could ever see those entries.
func (c *SharedCache) Retire(gen uint64) {
	if c == nil {
		return
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if k.gen == gen {
				s.unlink(e)
				delete(s.entries, k)
				s.bytes -= e.cost
			}
		}
		s.mu.Unlock()
	}
}

// EntriesForGen counts the resident entries of one generation — a
// test/debugging helper for asserting prompt retirement.
func (c *SharedCache) EntriesForGen(gen uint64) int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for k := range s.entries {
			if k.gen == gen {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Stats returns a point-in-time snapshot of the cache counters and
// residency.
func (c *SharedCache) Stats() SharedCacheStats {
	if c == nil {
		return SharedCacheStats{}
	}
	st := SharedCacheStats{Budget: c.Budget()}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		st.DecodeHits += s.hits
		st.DecodeMisses += s.misses
		st.Evictions += s.evictions
		st.Entries += len(s.entries)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
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
// decoded nodes are shared through the SharedDecodeCache interface, and
// the page reads that still reach the store are counted. Everything else
// forwards.
type cachedStore struct {
	Store
	cache    *SharedCache
	gen      uint64
	ext      uint32
	counters *CacheCounters
}

// WrapStore interposes the cache in front of a frozen store, keying its
// entries by (gen, ext). counters may be nil; when non-nil it receives
// the per-consumer hit/read split (share one CacheCounters across the
// extents of one snapshot). A nil cache returns s unchanged.
func (c *SharedCache) WrapStore(gen uint64, ext uint32, s Store, counters *CacheCounters) Store {
	if c == nil {
		return s
	}
	return &cachedStore{Store: s, cache: c, gen: gen, ext: ext, counters: counters}
}

func (cs *cachedStore) key(id PageID) pageKey {
	return pageKey{gen: cs.gen, ext: cs.ext, id: id}
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

// CachedDecode implements SharedDecodeCache. Only frozen (version 0)
// pages are shared; serving stores are always frozen.
func (cs *cachedStore) CachedDecode(id PageID, version uint64) (any, bool) {
	if !sharesVersion(version) {
		return nil, false
	}
	v, ok := cs.cache.getDecoded(cs.key(id))
	if ok && cs.counters != nil {
		cs.counters.sharedHits.Add(1)
	}
	return v, ok
}

// PublishDecode implements SharedDecodeCache.
func (cs *cachedStore) PublishDecode(id PageID, version uint64, v any) {
	if !sharesVersion(version) {
		return
	}
	if cs.counters != nil {
		cs.counters.decodes.Add(1)
	}
	cs.cache.putDecoded(cs.key(id), v, int64(cs.Store.PageSize()))
}

var (
	_ Store             = (*cachedStore)(nil)
	_ SharedDecodeCache = (*cachedStore)(nil)
)
