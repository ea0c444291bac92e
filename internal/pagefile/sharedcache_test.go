package pagefile

import (
	"bytes"
	"sync"
	"testing"
)

// buildFrozenStore returns a saved extent of n distinct pages, opened
// read-only, as the backing tier under a shared cache.
func buildFrozenStore(t *testing.T, pageSize, n int) Store {
	t.Helper()
	f := New(pageSize)
	for i := 0; i < n; i++ {
		id := f.Allocate()
		img := bytes.Repeat([]byte{byte(i + 1)}, pageSize)
		if err := f.WritePage(id, img); err != nil {
			t.Fatalf("WritePage: %v", err)
		}
	}
	x, off, _ := writeTestExtent(t, stpf, LayoutOpaque, f)
	s, _, err := stpf.open(x, off, sizeOf(t, x), BackendDisk)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tierOf wraps s in c under gen and returns its shared decode tier.
func tierOf(t *testing.T, c *SharedCache, gen uint64, s Store) SharedDecodeCache {
	t.Helper()
	sd, ok := c.WrapStore(gen, 0, s, nil).(SharedDecodeCache)
	if !ok {
		t.Fatal("wrapped store has no shared decode tier")
	}
	return sd
}

func TestSharedCacheNilSafe(t *testing.T) {
	var c *SharedCache
	if got := NewSharedCache(0); got != nil {
		t.Fatalf("NewSharedCache(0) = %v, want nil", got)
	}
	c.Retire(1)
	if n := c.EntriesForGen(1); n != 0 {
		t.Errorf("nil cache EntriesForGen = %d", n)
	}
	if st := c.Stats(); st != (SharedCacheStats{}) {
		t.Errorf("nil cache Stats = %+v", st)
	}
	if b := c.Budget(); b != 0 {
		t.Errorf("nil cache Budget = %d", b)
	}
	base := buildFrozenStore(t, 64, 1)
	if got := c.WrapStore(1, 0, base, nil); got != base {
		t.Errorf("nil cache WrapStore did not pass through")
	}
}

func TestSharedCacheDecodeRoundTrip(t *testing.T) {
	base := buildFrozenStore(t, 64, 9)
	c := NewSharedCache(1 << 20)
	s := tierOf(t, c, 3, base)
	if _, ok := s.CachedDecode(7, 0); ok {
		t.Fatal("hit on empty cache")
	}
	s.PublishDecode(7, 0, "node")
	if v, ok := s.CachedDecode(7, 0); !ok || v != "node" {
		t.Fatalf("after publish: %v, %v", v, ok)
	}
	// Another generation's wrap of the store, another wrap under the same
	// generation (a second extent) and another page never see the entry.
	if _, ok := tierOf(t, c, 4, base).CachedDecode(7, 0); ok {
		t.Error("another generation hit the entry")
	}
	if _, ok := tierOf(t, c, 3, base).CachedDecode(7, 0); ok {
		t.Error("another store of the generation hit the entry")
	}
	if _, ok := s.CachedDecode(8, 0); ok {
		t.Error("another page hit the entry")
	}
	st := c.Stats()
	if st.DecodeHits != 1 || st.DecodeMisses != 4 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 4 misses, 1 entry", st)
	}
}

// TestSharedCacheEviction pins the budget as one figure for the whole
// cache: published one at a time over two stores, the entries never take
// the cache over its budget, down to a budget of one entry.
func TestSharedCacheEviction(t *testing.T) {
	const pageSize = 1024
	const n = 40
	for _, entries := range []int64{1, 4} {
		c := NewSharedCache(entries * (pageSize + cacheEntryOverhead))
		stores := []SharedDecodeCache{
			tierOf(t, c, 1, buildFrozenStore(t, pageSize, n)),
			tierOf(t, c, 2, buildFrozenStore(t, pageSize, n)),
		}
		for i := 0; i < n; i++ {
			for j, s := range stores {
				s.PublishDecode(PageID(i), 0, i)
				if st := c.Stats(); st.Bytes > c.Budget() || st.Entries == 0 {
					t.Fatalf("%d-entry budget, publish %d of store %d: %d bytes in %d entries, budget %d",
						entries, i, j, st.Bytes, st.Entries, c.Budget())
				}
				// Hit a few entries, so that some have their bits set
				// when the hand comes round.
				s.CachedDecode(PageID(i/2), 0)
			}
		}
		st := c.Stats()
		if st.Evictions != 2*n-entries || int64(st.Entries) != entries {
			t.Fatalf("%d-entry budget: %+v, want %d evictions and %d entries", entries, st, 2*n-entries, entries)
		}
	}
}

func TestSharedCacheRetire(t *testing.T) {
	base := buildFrozenStore(t, 64, 50)
	c := NewSharedCache(1 << 20)
	var tiers []SharedDecodeCache
	for gen := uint64(1); gen <= 3; gen++ {
		s := tierOf(t, c, gen, base)
		for i := 0; i < 50; i++ {
			s.PublishDecode(PageID(i), 0, i)
		}
		tiers = append(tiers, s)
	}
	if n := c.EntriesForGen(2); n != 50 {
		t.Fatalf("gen 2 entries = %d, want 50", n)
	}
	before := c.Stats().Bytes
	c.Retire(2)
	if n := c.EntriesForGen(2); n != 0 {
		t.Fatalf("gen 2 entries after Retire = %d", n)
	}
	if n := c.EntriesForGen(1); n != 50 {
		t.Fatalf("Retire(2) touched gen 1: %d entries", n)
	}
	if n := c.EntriesForGen(3); n != 50 {
		t.Fatalf("Retire(2) touched gen 3: %d entries", n)
	}
	after := c.Stats().Bytes
	if after >= before {
		t.Fatalf("Retire released no bytes: %d -> %d", before, after)
	}
	if _, ok := tiers[1].CachedDecode(0, 0); ok {
		t.Fatal("retired node still served")
	}
}

// TestSharedCacheRetireDropsTables pins that Retire drops the slot tables
// WrapStore registered for the generation, not only their entries, and
// that a publish into a retired table is not left charged.
func TestSharedCacheRetireDropsTables(t *testing.T) {
	base := buildFrozenStore(t, 64, 8)
	c := NewSharedCache(1 << 20)
	kept := tierOf(t, c, 1, base)
	retired := []SharedDecodeCache{tierOf(t, c, 2, base), tierOf(t, c, 2, base)}
	kept.PublishDecode(0, 0, "kept")
	for _, s := range retired {
		s.PublishDecode(0, 0, "retired")
	}
	if len(c.tables) != 3 || c.nslots != 24 {
		t.Fatalf("%d tables of %d slots registered, want 3 of 24", len(c.tables), c.nslots)
	}
	c.Retire(2)
	if len(c.tables) != 1 || c.nslots != 8 {
		t.Fatalf("after Retire(2): %d tables of %d slots, want 1 of 8", len(c.tables), c.nslots)
	}
	retired[0].PublishDecode(1, 0, "late")
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 64+cacheEntryOverhead {
		t.Fatalf("after Retire(2) and a late publish: %+v, want the one entry of gen 1", st)
	}
	if v, ok := kept.CachedDecode(0, 0); !ok || v != "kept" {
		t.Fatalf("gen 1 entry after Retire(2): %v, %v", v, ok)
	}
}

func TestCachedStoreForwardsAndCounts(t *testing.T) {
	const pageSize = 128
	base := buildFrozenStore(t, pageSize, 8)
	c := NewSharedCache(1 << 20)
	var counters CacheCounters
	s := c.WrapStore(7, 0, base, &counters)

	if ro, ok := s.(interface{ ReadOnly() bool }); !ok || !ro.ReadOnly() {
		t.Fatal("wrapped store lost its ReadOnly contract")
	}

	// The wrapper holds no page images: every read reaches the store and
	// is counted, and nothing becomes resident in the cache.
	dst := make([]byte, pageSize)
	want := make([]byte, pageSize)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 8; i++ {
			if err := s.ReadPage(PageID(i), dst); err != nil {
				t.Fatalf("ReadPage: %v", err)
			}
			base.ReadPage(PageID(i), want)
			if !bytes.Equal(dst, want) {
				t.Fatalf("image of page %d differs", i)
			}
		}
	}
	if v := counters.Load(); v.StoreReads != 16 || v.SharedHits != 0 {
		t.Fatalf("counters = %+v, want 16 store reads and no shared hits", v)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("raw reads populated the cache: %+v", st)
	}
	// Errors must not count.
	if err := s.ReadPage(PageID(99), dst); err == nil {
		t.Fatal("read of bad page succeeded")
	}
	if got := counters.Load(); got.StoreReads != 16 {
		t.Fatalf("error read counted: %+v", got)
	}
}

func TestSharedDecodeAcrossBuffers(t *testing.T) {
	const pageSize = 128
	base := buildFrozenStore(t, pageSize, 4)
	c := NewSharedCache(1 << 20)
	var counters CacheCounters
	s := c.WrapStore(1, 0, base, &counters)

	decodes := 0
	decode := func(id PageID, data []byte) (any, error) {
		decodes++
		return int(data[0]), nil
	}

	b1 := NewBuffer(s, 10)
	for i := 0; i < 4; i++ {
		if _, err := b1.ReadDecoded(PageID(i), decode); err != nil {
			t.Fatalf("b1 decode: %v", err)
		}
	}
	if decodes != 4 {
		t.Fatalf("decodes after first buffer = %d, want 4", decodes)
	}

	// A second session's buffer reuses the published decodes: zero new
	// decode calls, same shared values.
	b2 := NewBuffer(s, 10)
	for i := 0; i < 4; i++ {
		v, err := b2.ReadDecoded(PageID(i), decode)
		if err != nil {
			t.Fatalf("b2 decode: %v", err)
		}
		if v.(int) != i+1 {
			t.Fatalf("page %d decoded to %v, want %d", i, v, i+1)
		}
	}
	if decodes != 4 {
		t.Fatalf("second buffer re-decoded: %d decode calls", decodes)
	}
	// The second session never reached the store: four reads and four
	// decodes in total, four requests answered by the first session's.
	want := CacheCounterValues{SharedHits: 4, StoreReads: 4, Decodes: 4}
	if v := counters.Load(); v != want {
		t.Fatalf("counters = %+v, want %+v", v, want)
	}

	// The I/O accounting contract holds: both buffers miss identically.
	if got := b1.Stats().Reads; got != 4 {
		t.Fatalf("b1 reads = %d, want 4", got)
	}
	if got := b2.Stats().Reads; got != 4 {
		t.Fatalf("b2 reads = %d, want 4", got)
	}
}

func TestSharedDecodeIgnoresMutableVersions(t *testing.T) {
	// A writable store has nonzero versions after writes; the shared tier
	// must refuse to serve or publish those pages.
	f := New(64)
	id := f.Allocate()
	if err := f.WritePage(id, []byte{1}); err != nil {
		t.Fatal(err)
	}
	c := NewSharedCache(1 << 20)
	s := c.WrapStore(1, 0, f, nil)
	sd := s.(SharedDecodeCache)
	sd.PublishDecode(id, f.Version(id), "decoded")
	if _, ok := sd.CachedDecode(id, f.Version(id)); ok {
		t.Fatal("mutable-version decode was shared")
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("mutable page cached: %+v", st)
	}
}

// TestSharedTierBoundsViewDecodes pins the budget: a view over a store
// with a shared tier keeps no decode of its own, so however many distinct
// pages it touches, what it holds is what the tier's budget admits, here
// four entries in all. Over the plain store the same view keeps its
// private map and decodes each page once.
func TestSharedTierBoundsViewDecodes(t *testing.T) {
	const pageSize = 128
	budget := int64(4 * (pageSize + cacheEntryOverhead))
	n := 10 * int(budget/(pageSize+cacheEntryOverhead))
	base := buildFrozenStore(t, pageSize, n)
	decodes := 0
	decode := func(id PageID, data []byte) (any, error) {
		decodes++
		return string(data), nil
	}
	want := make([]byte, pageSize)
	fresh := func(id PageID) string {
		if err := base.ReadPage(id, want); err != nil {
			t.Fatal(err)
		}
		return string(want)
	}

	c := NewSharedCache(budget)
	b := NewBuffer(c.WrapStore(1, 0, base, nil), 10)
	for pass := 0; pass < 2; pass++ {
		for id := PageID(0); id < PageID(n); id++ {
			v, err := b.ReadDecoded(id, decode)
			if err != nil {
				t.Fatal(err)
			}
			if v.(string) != fresh(id) {
				t.Fatalf("pass %d page %d: decode differs from a fresh one", pass, id)
			}
			if st := c.Stats(); st.Bytes > c.Budget() {
				t.Fatalf("pass %d page %d: tier holds %d bytes in %d entries, budget %d", pass, id, st.Bytes, st.Entries, c.Budget())
			}
		}
	}
	if len(b.decoded) != 0 {
		t.Fatalf("tiered view holds %d private decodes, want 0", len(b.decoded))
	}
	if st := c.Stats(); st.Bytes > c.Budget() || st.Entries == 0 {
		t.Fatalf("tier holds %d bytes in %d entries, budget %d", st.Bytes, st.Entries, c.Budget())
	}

	decodes = 0
	b = NewBuffer(base, 10)
	for pass := 0; pass < 2; pass++ {
		for id := PageID(0); id < PageID(n); id++ {
			if v, err := b.ReadDecoded(id, decode); err != nil || v.(string) != fresh(id) {
				t.Fatalf("plain view page %d: %v", id, err)
			}
		}
	}
	if decodes != n || len(b.decoded) != n {
		t.Fatalf("plain view: %d decodes, %d held, want %d of each", decodes, len(b.decoded), n)
	}
}

func TestSharedCacheConcurrent(t *testing.T) {
	const pageSize = 256
	base := buildFrozenStore(t, pageSize, 32)
	c := NewSharedCache(1 << 20)
	var counters CacheCounters
	s := c.WrapStore(5, 0, base, &counters)
	decode := func(id PageID, data []byte) (any, error) { return int(data[0]), nil }

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			b := NewBuffer(s, 4)
			for iter := 0; iter < 300; iter++ {
				id := PageID((seed*31 + iter*7) % 32)
				v, err := b.ReadDecoded(id, decode)
				if err != nil {
					errs <- err
					return
				}
				if v.(int) != int(id)+1 {
					errs <- &PageError{}
					return
				}
				if iter%50 == 0 {
					b.Reset()
				}
			}
		}(g)
	}
	// A concurrent retirer on a different generation must not disturb the
	// readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			c.WrapStore(99, 0, base, nil).(SharedDecodeCache).PublishDecode(PageID(i%32), 0, i)
			c.Retire(99)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v := counters.Load()
	if v.SharedHits == 0 {
		t.Fatalf("no shared hits under concurrency: %+v", v)
	}
	if n := c.EntriesForGen(99); n != 0 {
		t.Fatalf("retired generation left %d entries", n)
	}
	// The generation is warm: a new session's view reads and decodes
	// nothing, while its pool is charged as ever.
	b := NewBuffer(s, 4)
	for id := PageID(0); id < 32; id++ {
		if got, err := b.ReadDecoded(id, decode); err != nil || got.(int) != int(id)+1 {
			t.Fatalf("warm view page %d: %v, %v", id, got, err)
		}
	}
	w := counters.Load()
	if w.StoreReads != v.StoreReads || w.Decodes != v.Decodes || w.SharedHits != v.SharedHits+32 {
		t.Fatalf("warm view moved the counters %+v -> %+v, want 32 shared hits and nothing else", v, w)
	}
	if st := b.Stats(); st.Reads != 32 {
		t.Fatalf("warm view charged %+v, want 32 reads", st)
	}
}

// TestSharedCacheConcurrentEviction runs the clock hand while readers
// hit: under a budget of three entries, 8 readers over 32 pages publish
// and evict all the time beside a retirer of another generation. Every
// value must still be the page's own decode, and at rest the cache is
// within its budget.
func TestSharedCacheConcurrentEviction(t *testing.T) {
	const pageSize = 256
	base := buildFrozenStore(t, pageSize, 32)
	c := NewSharedCache(3 * (pageSize + cacheEntryOverhead))
	s := c.WrapStore(5, 0, base, nil)
	decode := func(id PageID, data []byte) (any, error) { return int(data[0]), nil }

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			b := NewBuffer(s, 4)
			for iter := 0; iter < 500; iter++ {
				// Half the visits go to four hot pages, so entries are hit
				// while the hand passes them.
				id := PageID((seed*31 + iter*7) % 32)
				if iter%2 == 0 {
					id %= 4
				}
				v, err := b.ReadDecoded(id, decode)
				if err != nil {
					errs <- err
					return
				}
				if v.(int) != int(id)+1 {
					errs <- &PageError{}
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			c.WrapStore(99, 0, base, nil).(SharedDecodeCache).PublishDecode(PageID(i%32), 0, i)
			c.Retire(99)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Bytes > c.Budget() || st.Evictions == 0 || st.DecodeHits == 0 {
		t.Fatalf("at rest: %+v, want bytes within the budget, evictions and hits", st)
	}
	if n := c.EntriesForGen(99); n != 0 {
		t.Fatalf("retired generation left %d entries", n)
	}
}

// PageError is a trivial error used by the concurrency tests.
type PageError struct{}

func (*PageError) Error() string { return "decoded value mismatch" }
