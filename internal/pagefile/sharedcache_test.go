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

func TestSharedCacheNilSafe(t *testing.T) {
	var c *SharedCache
	if got := NewSharedCache(0); got != nil {
		t.Fatalf("NewSharedCache(0) = %v, want nil", got)
	}
	if _, ok := c.getDecoded(pageKey{}); ok {
		t.Error("nil cache reported a decode hit")
	}
	c.putDecoded(pageKey{}, 42, 10)
	c.Retire(1)
	if n := c.EntriesForGen(1); n != 0 {
		t.Errorf("nil cache EntriesForGen = %d", n)
	}
	if st := c.Stats(); st != (SharedCacheStats{}) {
		t.Errorf("nil cache Stats = %+v", st)
	}
	base := buildFrozenStore(t, 64, 1)
	if got := c.WrapStore(1, 0, base, nil); got != base {
		t.Errorf("nil cache WrapStore did not pass through")
	}
}

func TestSharedCacheDecodeRoundTrip(t *testing.T) {
	c := NewSharedCache(1 << 20)
	k := pageKey{gen: 3, ext: 1, id: 7}
	if _, ok := c.getDecoded(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.putDecoded(k, "node", 8)
	if v, ok := c.getDecoded(k); !ok || v != "node" {
		t.Fatalf("after put: %v, %v", v, ok)
	}
	// A different generation, extent, or id never sees the entry.
	for _, other := range []pageKey{{gen: 4, ext: 1, id: 7}, {gen: 3, ext: 0, id: 7}, {gen: 3, ext: 1, id: 8}} {
		if _, ok := c.getDecoded(other); ok {
			t.Errorf("key %+v hit entry of %+v", other, k)
		}
	}
	st := c.Stats()
	if st.DecodeHits != 1 || st.DecodeMisses != 4 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 4 misses, 1 entry", st)
	}
}

func TestSharedCacheEviction(t *testing.T) {
	const pageSize = 1024
	// Budget for roughly two nodes per stripe; inserting many that hash to
	// arbitrary stripes must keep every stripe within budget.
	c := NewSharedCache(int64(cacheStripeCount) * (pageSize + cacheEntryOverhead) * 2)
	for i := 0; i < 10*cacheStripeCount; i++ {
		c.putDecoded(pageKey{gen: 1, id: PageID(i)}, i, pageSize)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overfill: %+v", st)
	}
	if st.Bytes > c.Budget() {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, c.Budget())
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		over := s.bytes > c.stripeBudget
		n := len(s.entries)
		b := s.bytes
		s.mu.Unlock()
		if over {
			t.Fatalf("stripe %d over budget: %d bytes, %d entries", i, b, n)
		}
	}
}

func TestSharedCacheRetire(t *testing.T) {
	c := NewSharedCache(1 << 20)
	for gen := uint64(1); gen <= 3; gen++ {
		for i := 0; i < 50; i++ {
			c.putDecoded(pageKey{gen: gen, id: PageID(i)}, i, 4)
		}
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
	if _, ok := c.getDecoded(pageKey{gen: 2, id: 0}); ok {
		t.Fatal("retired node still served")
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
// pages it touches, what it holds is what the tier's budget admits. The
// budget is four entries per stripe: a stripe always keeps the entry just
// published, so a budget below one entry per stripe bounds nothing. Over
// the plain store the same view keeps its private map and decodes each
// page once.
func TestSharedTierBoundsViewDecodes(t *testing.T) {
	const pageSize = 128
	budget := int64(cacheStripeCount * 4 * (pageSize + cacheEntryOverhead))
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
			c.putDecoded(pageKey{gen: 99, id: PageID(i)}, i, pageSize)
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

// PageError is a trivial error used by the concurrency test.
type PageError struct{}

func (*PageError) Error() string { return "decoded value mismatch" }
