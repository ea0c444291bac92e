package pagefile

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// countingDecode returns a decode func that counts invocations and parses
// the page's first byte.
func countingDecode(calls *int) func(PageID, []byte) (any, error) {
	return func(_ PageID, data []byte) (any, error) {
		*calls++
		return int(data[0]), nil
	}
}

// countingStore counts the page reads that reach it and, of those, the
// ones that asked for an image (a non-nil dst).
type countingStore struct {
	Store
	reads, images int
}

func (c *countingStore) ReadPage(id PageID, dst []byte) error {
	c.reads++
	if dst != nil {
		c.images++
	}
	return c.Store.ReadPage(id, dst)
}

// decodeFirst puts a shared decode tier over s, as a serving registry with
// a cache budget does: that is what makes ReadDecoded consult its decodes
// before the store.
func decodeFirst(s Store) Store {
	return NewSharedCache(1<<20).WrapStore(1, 0, s, nil)
}

// bothLookupOrders runs test over a plain store and under a decode tier:
// what invalidates a decode must not depend on when the store is read.
func bothLookupOrders(t *testing.T, test func(t *testing.T, wrap func(Store) Store)) {
	t.Run("plain", func(t *testing.T) { test(t, func(s Store) Store { return s }) })
	t.Run("decode-first", func(t *testing.T) { test(t, decodeFirst) })
}

// TestReadDecodedAccountingMatchesRead drives two buffers over the same
// file with the same access sequence — one through Read, one through
// ReadDecoded — and asserts the Stats are identical at every step. This is
// the core exactness property: the decode cache must be invisible to the
// paper's I/O metric. The store under a decode tier sees the other side of
// it: bytes move only for a decode miss or a raw Read, and a raw Read of a
// page ReadDecoded made resident still returns the true image.
func TestReadDecodedAccountingMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := New(16)
		var pages []PageID
		for i := 0; i < 8; i++ {
			p := f.Allocate()
			if f.write(p, []byte{byte(i + 1)}) != nil {
				return false
			}
			pages = append(pages, p)
		}
		capacity := 1 + r.Intn(4)
		plain := NewBuffer(f, capacity)
		under := &countingStore{Store: f}
		cached := NewBuffer(decodeFirst(under), capacity)
		calls, rawReads := 0, 0
		decode := countingDecode(&calls)
		for op := 0; op < 300; op++ {
			switch r.Intn(10) {
			case 0:
				plain.Reset()
				cached.Reset()
			case 1:
				p := pages[r.Intn(len(pages))]
				plain.Evict(p)
				cached.Evict(p)
			case 2:
				p := pages[r.Intn(len(pages))]
				v := []byte{byte(r.Intn(255) + 1)}
				if plain.Write(p, v) != nil || cached.Write(p, v) != nil {
					return false
				}
			case 3:
				p := pages[r.Intn(len(pages))]
				want, err1 := plain.Read(p)
				got, err2 := cached.Read(p)
				if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
					return false
				}
				rawReads++
			default:
				p := pages[r.Intn(len(pages))]
				data, err1 := plain.Read(p)
				v, err2 := cached.ReadDecoded(p, decode)
				if err1 != nil || err2 != nil {
					return false
				}
				if int(data[0]) != v.(int) {
					return false
				}
			}
			if plain.Stats() != cached.Stats() {
				return false
			}
			if under.reads > calls+rawReads {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestReadDecodedFetchesOnlyOnDecodeMiss is the paper's measurement loop
// over a pool far smaller than the working set: every query starts cold
// (Reset) and is charged the same misses every time. Under a decode tier
// the store is read once per distinct page — when its node is first
// decoded — and never again; over a plain store every charged miss is a
// read, but only a decode miss asks for the page's image.
func TestReadDecodedFetchesOnlyOnDecodeMiss(t *testing.T) {
	f := New(16)
	var pages []PageID
	for i := 0; i < 8; i++ {
		p := f.Allocate()
		if err := f.write(p, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	plain := NewBuffer(f, 2)
	under := &countingStore{Store: f}
	cached := NewBuffer(decodeFirst(under), 2)
	bare := &countingStore{Store: f}
	uncached := NewBuffer(bare, 2)
	calls, bareCalls, misses := 0, 0, 0
	decode, bareDecode := countingDecode(&calls), countingDecode(&bareCalls)
	query := []int{0, 1, 2, 0, 3, 1, 4, 4, 5, 0}
	for round := 0; round < 5; round++ {
		plain.Reset()
		cached.Reset()
		uncached.Reset()
		for _, i := range query {
			data, err := plain.Read(pages[i])
			if err != nil {
				t.Fatal(err)
			}
			v, err := cached.ReadDecoded(pages[i], decode)
			if err != nil {
				t.Fatal(err)
			}
			w, err := uncached.ReadDecoded(pages[i], bareDecode)
			if err != nil {
				t.Fatal(err)
			}
			if v.(int) != int(data[0]) || w.(int) != int(data[0]) {
				t.Fatalf("round %d page %d decoded to %v and %v, image says %d", round, i, v, w, data[0])
			}
		}
		if plain.Stats() != cached.Stats() || plain.Stats() != uncached.Stats() {
			t.Fatalf("round %d: ReadDecoded charged %+v and %+v, Read %+v", round, cached.Stats(), uncached.Stats(), plain.Stats())
		}
		if under.reads != 6 || calls != 6 {
			t.Fatalf("round %d: %d store reads, %d decodes under the decode tier, want 6 of each (distinct pages)", round, under.reads, calls)
		}
		misses += int(plain.Stats().Reads)
		if bare.reads != misses || bare.images != 6 || bareCalls != 6 {
			t.Fatalf("round %d: %d store reads, %d images, %d decodes over the plain store, want %d (the charged misses), 6 and 6", round, bare.reads, bare.images, bareCalls, misses)
		}
	}
	if st := cached.Stats(); st.Reads == 0 || st.Hits == 0 {
		t.Fatalf("query exercises no misses or no hits: %+v", st)
	}

	// Page 0 is resident for the accounting only: a raw Read is a hit that
	// loads the true image, once.
	before := cached.Stats()
	for n := 0; n < 2; n++ {
		data, err := cached.Read(pages[0])
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != 1 {
			t.Fatalf("Read after ReadDecoded returned %d, want the page image 1", data[0])
		}
	}
	if d := cached.Stats().Sub(before); d != (Stats{Hits: 2}) {
		t.Fatalf("Read of a resident page charged %+v, want 2 hits", d)
	}
	if under.reads != 7 {
		t.Fatalf("resident page loaded %d times, want once", under.reads-6)
	}
}

func TestReadDecodedCachesAcrossReset(t *testing.T) {
	bothLookupOrders(t, func(t *testing.T, wrap func(Store) Store) {
		f := New(16)
		p := f.Allocate()
		if err := f.write(p, []byte{7}); err != nil {
			t.Fatal(err)
		}
		b := NewBuffer(wrap(f), 2)
		calls := 0
		decode := countingDecode(&calls)

		v1, err := b.ReadDecoded(p, decode)
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 || v1.(int) != 7 {
			t.Fatalf("first decode: calls=%d v=%v", calls, v1)
		}
		// Still buffered: no re-decode, accounted as a hit.
		if _, err := b.ReadDecoded(p, decode); err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Fatalf("warm repeat re-decoded: calls=%d", calls)
		}
		// Reset empties the pool (cold disk buffers) but the image is
		// unchanged, so the parse survives while the read is still charged.
		b.Reset()
		v2, err := b.ReadDecoded(p, decode)
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Fatalf("decode did not survive Reset: calls=%d", calls)
		}
		if v2 != v1 {
			t.Fatal("decode identity changed across Reset")
		}
		if st := b.Stats(); st.Reads != 1 || st.Hits != 0 {
			t.Fatalf("post-Reset accounting: %+v", st)
		}
	})
}

func TestReadDecodedInvalidatedByWrite(t *testing.T) {
	bothLookupOrders(t, func(t *testing.T, wrap func(Store) Store) {
		f := New(16)
		p := f.Allocate()
		b := NewBuffer(wrap(f), 2)
		calls := 0
		decode := countingDecode(&calls)

		if err := b.Write(p, []byte{1}); err != nil {
			t.Fatal(err)
		}
		v, err := b.ReadDecoded(p, decode)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != 1 || calls != 1 {
			t.Fatalf("before write: v=%v calls=%d", v, calls)
		}
		if err := b.Write(p, []byte{2}); err != nil {
			t.Fatal(err)
		}
		v, err = b.ReadDecoded(p, decode)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != 2 || calls != 2 {
			t.Fatalf("after write: v=%v calls=%d", v, calls)
		}
	})
}

// TestReadDecodedInvalidatedByForeignWrite covers the view scenario's dual:
// a write through a *different* buffer over the same file must still
// invalidate this buffer's decode, because the page version lives on the
// file, not the buffer.
func TestReadDecodedInvalidatedByForeignWrite(t *testing.T) {
	bothLookupOrders(t, func(t *testing.T, wrap func(Store) Store) {
		f := New(16)
		p := f.Allocate()
		if err := f.write(p, []byte{1}); err != nil {
			t.Fatal(err)
		}
		a := NewBuffer(wrap(f), 2)
		other := NewBuffer(wrap(f), 2)
		calls := 0
		decode := countingDecode(&calls)

		if v, err := a.ReadDecoded(p, decode); err != nil || v.(int) != 1 {
			t.Fatalf("v=%v err=%v", v, err)
		}
		if err := other.Write(p, []byte{9}); err != nil {
			t.Fatal(err)
		}
		// a's pool still holds the stale image; flush it so Read refetches.
		a.Evict(p)
		v, err := a.ReadDecoded(p, decode)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != 9 || calls != 2 {
			t.Fatalf("foreign write not seen: v=%v calls=%d", v, calls)
		}
	})
}

func TestReadDecodedInvalidatedByPageReuse(t *testing.T) {
	bothLookupOrders(t, func(t *testing.T, wrap func(Store) Store) {
		f := New(16)
		p := f.Allocate()
		if err := f.write(p, []byte{5}); err != nil {
			t.Fatal(err)
		}
		b := NewBuffer(wrap(f), 2)
		calls := 0
		decode := countingDecode(&calls)
		if v, err := b.ReadDecoded(p, decode); err != nil || v.(int) != 5 {
			t.Fatalf("v=%v err=%v", v, err)
		}
		// Free the page and reallocate it: same id, new identity. Allocate
		// bumps the version, so even without an intervening Write the old
		// decode must not resurface.
		if err := f.Free(p); err != nil {
			t.Fatal(err)
		}
		b.Evict(p)
		p2 := f.Allocate()
		if p2 != p {
			t.Fatalf("expected page reuse, got %d", p2)
		}
		if err := f.write(p2, []byte{6}); err != nil {
			t.Fatal(err)
		}
		v, err := b.ReadDecoded(p2, decode)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != 6 || calls != 2 {
			t.Fatalf("reused page served stale decode: v=%v calls=%d", v, calls)
		}
	})
}

func TestEvictDropsDecode(t *testing.T) {
	bothLookupOrders(t, func(t *testing.T, wrap func(Store) Store) {
		f := New(16)
		p := f.Allocate()
		if err := f.write(p, []byte{3}); err != nil {
			t.Fatal(err)
		}
		b := NewBuffer(wrap(f), 2)
		calls := 0
		decode := countingDecode(&calls)
		if _, err := b.ReadDecoded(p, decode); err != nil {
			t.Fatal(err)
		}
		b.Evict(p)
		if _, err := b.ReadDecoded(p, decode); err != nil {
			t.Fatal(err)
		}
		if calls != 2 {
			t.Fatalf("Evict kept the decode: calls=%d", calls)
		}
	})
}

// TestResetReusesAllocations asserts the satellite requirement: a Reset
// must not allocate, and the frames survive for reuse.
func TestResetReusesAllocations(t *testing.T) {
	f := New(64)
	b := NewBuffer(f, 10)
	var pages []PageID
	for i := 0; i < 10; i++ {
		p := f.Allocate()
		if err := f.write(p, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	// Warm once so every slot has its frame.
	for _, p := range pages {
		if _, err := b.Read(p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		for _, p := range pages {
			if _, err := b.Read(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("reset+refill allocates %.1f times per run", allocs)
	}
}
