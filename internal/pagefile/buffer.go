package pagefile

import "fmt"

// Stats accumulates buffer-pool traffic in the paper's unit. Reads are the
// page requests that missed the pool — the paper's disk accesses — whether
// or not the page's bytes had to be fetched to answer them (under a decode
// tier ReadDecoded fetches only on a decode miss); Writes are
// write-through page writes; Hits are requests that found their page in
// the pool.
type Stats struct {
	Reads  int64 // requests that missed the pool
	Writes int64 // pages written to the file
	Hits   int64 // requests that found the page in the pool
}

// IO returns the total number of disk accesses.
func (s Stats) IO() int64 { return s.Reads + s.Writes }

// nilSlot marks the end of the intrusive LRU links.
const nilSlot = int32(-1)

// slot is one preallocated frame holder of the pool. Resident slots form a
// doubly linked recency list (head = most recent); free slots are chained
// through next. A slot can be resident for the accounting alone: loaded is
// false until some reader needs the page's bytes (see ReadDecoded).
type slot struct {
	prev, next int32
	id         PageID
	frame      []byte
	loaded     bool // frame holds id's image
}

// decodedPage is one entry of the decode cache: the parsed form of a page
// image plus the page version it was parsed from. The entry is valid
// exactly while the file's page version is unchanged — any write (or page
// id reuse) bumps the version and thereby invalidates the decode.
type decodedPage struct {
	version uint64
	value   any
}

// Buffer is an LRU buffer pool over a Store — either backend. The paper
// uses a 10-page LRU buffer, reset before every query; Reset provides
// exactly that.
//
// Writes are write-through: the page image goes to the file immediately and
// the buffered copy is refreshed, which matches how the original
// experiments charged index-building I/O separately from query I/O.
//
// The pool is allocation-free in steady state: the LRU is an intrusive
// list over capacity preallocated slots, evicted frames are recycled
// through a free list, and Reset clears (rather than reallocates) its
// bookkeeping — the cold-cache measurement discipline resets the pool
// once per query, thousands of times per workload.
//
// The pool is the paper's accounting device: which requests hit and which
// miss depends on the request sequence and the capacity, nothing else.
// Beside it sits one decode cache per page (ReadDecoded): the store's
// shared tier for a page it shares, else a private map stamped with the
// store's per-page version. Stats are accounted by the same hit/miss
// logic whether or not a decode is reused, so every I/O figure is
// bit-identical with and without it. Reset keeps the decodes: resetting
// simulates cold *disk buffers*, not a change to the page images, and the
// version stamp already invalidates a decode exactly when its image can
// have changed (Write, page reuse). Evict drops the page's private decode
// along with its frame.
//
// Not safe for concurrent use; give each goroutine its own Buffer over
// the shared (frozen) store.
type Buffer struct {
	store    Store
	capacity int
	stats    Stats

	index map[PageID]int32 // resident page -> slot
	slots []slot           // capacity preallocated frame holders
	head  int32            // most recently used resident slot
	tail  int32            // least recently used resident slot
	free  int32            // free-slot chain (linked via next)

	decoded map[PageID]decodedPage // made on the first private decode

	// shared is the cross-buffer decode tier, present when the store
	// implements SharedDecodeCache (the serving layer's shared cache
	// wrapper), and the only decode cache of the pages it shares.
	shared SharedDecodeCache
}

// NewBuffer wraps a store with an LRU pool of the given capacity (in
// pages).
func NewBuffer(store Store, capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	b := &Buffer{
		store:    store,
		capacity: capacity,
		index:    make(map[PageID]int32, capacity),
		slots:    make([]slot, capacity),
		head:     nilSlot,
		tail:     nilSlot,
	}
	b.shared, _ = store.(SharedDecodeCache)
	for i := range b.slots {
		b.slots[i].next = int32(i) + 1
		b.slots[i].prev = nilSlot
	}
	b.slots[capacity-1].next = nilSlot
	b.free = 0
	return b
}

// Capacity returns the pool size in pages.
func (b *Buffer) Capacity() int { return b.capacity }

// Store returns the underlying page store.
func (b *Buffer) Store() Store { return b.store }

// Stats returns the traffic counters accumulated since the last Reset.
func (b *Buffer) Stats() Stats { return b.stats }

// Reset empties the pool and zeroes the counters — the paper's cold-cache
// condition before each query. Frames and maps are reused, not
// reallocated, and the decode cache survives (see the type comment: page
// images are untouched by a pool reset, so no decode can be stale).
func (b *Buffer) Reset() {
	for i := range b.slots {
		b.slots[i].next = int32(i) + 1
		b.slots[i].prev = nilSlot
	}
	b.slots[b.capacity-1].next = nilSlot
	b.free = 0
	b.head, b.tail = nilSlot, nilSlot
	clear(b.index)
	b.stats = Stats{}
}

// unlink removes a resident slot from the recency list.
func (b *Buffer) unlink(i int32) {
	s := &b.slots[i]
	if s.prev != nilSlot {
		b.slots[s.prev].next = s.next
	} else {
		b.head = s.next
	}
	if s.next != nilSlot {
		b.slots[s.next].prev = s.prev
	} else {
		b.tail = s.prev
	}
}

// pushFront makes slot i the most recently used.
func (b *Buffer) pushFront(i int32) {
	s := &b.slots[i]
	s.prev = nilSlot
	s.next = b.head
	if b.head != nilSlot {
		b.slots[b.head].prev = i
	}
	b.head = i
	if b.tail == nilSlot {
		b.tail = i
	}
}

// moveToFront refreshes the recency of a resident slot.
func (b *Buffer) moveToFront(i int32) {
	if b.head == i {
		return
	}
	b.unlink(i)
	b.pushFront(i)
}

// take returns a slot for a new resident page, evicting the LRU victim
// when the pool is full. The slot's frame (if any) is retained for reuse.
func (b *Buffer) take() int32 {
	if b.free != nilSlot {
		i := b.free
		b.free = b.slots[i].next
		return i
	}
	// Evict the least recently used page; its decode stays cached (the
	// page image on the file is unchanged).
	i := b.tail
	b.unlink(i)
	delete(b.index, b.slots[i].id)
	return i
}

// frameFor returns slot i's page-sized frame, allocating it on first use.
func (b *Buffer) frameFor(i int32) []byte {
	if b.slots[i].frame == nil {
		b.slots[i].frame = make([]byte, b.store.PageSize())
	}
	return b.slots[i].frame
}

// admit makes id resident in slot i as the most recently used page.
func (b *Buffer) admit(i int32, id PageID, loaded bool) {
	b.slots[i].id = id
	b.slots[i].loaded = loaded
	b.index[id] = i
	b.pushFront(i)
}

// release returns slot i to the free chain.
func (b *Buffer) release(i int32) {
	b.slots[i].next = b.free
	b.free = i
}

// fill copies data, zero-padded to the page size, into slot i's frame.
func (b *Buffer) fill(i int32, data []byte) {
	frame := b.frameFor(i)
	clear(frame[copy(frame, data):])
	b.slots[i].loaded = true
}

// Read returns the image of the page, fetching it from the file on a miss.
// The returned slice aliases the buffered frame; callers must treat it as
// read-only and must not retain it across further buffer operations.
func (b *Buffer) Read(id PageID) ([]byte, error) {
	if i, ok := b.index[id]; ok {
		if !b.slots[i].loaded {
			// Resident for the accounting only (ReadDecoded answered the
			// request that admitted it from a cached decode): fetch the
			// image now. The request that missed was already charged.
			if err := b.store.ReadPage(id, b.frameFor(i)); err != nil {
				return nil, err
			}
			b.slots[i].loaded = true
		}
		b.moveToFront(i)
		b.stats.Hits++
		return b.slots[i].frame, nil
	}
	// Validate the id before taking a slot so a bad request cannot evict a
	// victim (which would perturb the I/O accounting of later reads).
	if err := b.store.Check(id); err != nil {
		return nil, err
	}
	i := b.take()
	frame := b.frameFor(i)
	if err := b.store.ReadPage(id, frame); err != nil {
		// Recycle the slot; nothing became resident.
		b.release(i)
		return nil, err
	}
	b.stats.Reads++
	b.admit(i, id, true)
	return frame, nil
}

// ReadDecoded returns the page's decoded form, parsing the image with
// decode only when the page's decode cache has no parse of its current
// version: a repeat visit — whether the page is still buffered or was
// requested again after an eviction or Reset — reuses the cached parse as
// long as the image is unchanged. A page the shared tier shares is looked
// up and published there alone, so a parse its byte budget evicted is
// redone on the next visit; every other page uses the private map.
//
// The buffer traffic accounting is exactly Read's: the pool hit/miss and
// the Stats counters do not depend on the decode cache. The cached decode
// is looked up first; a request it answers that misses the pool admits
// its slot without an image. Whether that miss reaches the store depends
// on the store: under a shared decode tier it does not, over a plain
// store it reads the page as the paper's buffer does, but asks for no
// image (ReadPage with a nil dst), so the page codec never runs. An image
// is produced only for a decode miss or a raw Read.
//
// decode must treat data as read-only and must not retain it; the slice
// aliases the buffered frame (see Read). The returned value is shared
// between every caller of ReadDecoded for this page version, so callers
// must not mutate it — mutating paths should Read and parse a private
// copy instead.
func (b *Buffer) ReadDecoded(id PageID, decode func(id PageID, data []byte) (any, error)) (any, error) {
	i, resident := b.index[id]
	if !resident {
		// As in Read: a bad id is refused before anything is charged.
		if err := b.store.Check(id); err != nil {
			return nil, err
		}
	}
	ver := b.store.Version(id)
	tiered := b.shared != nil && sharesVersion(ver)
	var v any
	var ok bool
	if tiered {
		v, ok = b.shared.CachedDecode(id, ver)
	} else if d, hit := b.decoded[id]; hit && d.version == ver {
		v, ok = d.value, true
	}
	if ok {
		if resident {
			b.moveToFront(i)
			b.stats.Hits++
			return v, nil
		}
		// DESIGN.md ('Decoded-node cache') says why a plain store keeps
		// the read on every pool miss. A failed read leaves nothing
		// resident and charges nothing.
		if b.shared == nil {
			if err := b.store.ReadPage(id, nil); err != nil {
				return nil, err
			}
		}
		b.stats.Reads++
		b.admit(b.take(), id, false)
		return v, nil
	}
	data, err := b.Read(id)
	if err != nil {
		return nil, err
	}
	if v, err = decode(id, data); err != nil {
		return nil, err
	}
	if tiered {
		b.shared.PublishDecode(id, ver, v)
		return v, nil
	}
	if b.decoded == nil {
		b.decoded = make(map[PageID]decodedPage)
	}
	b.decoded[id] = decodedPage{version: ver, value: v}
	return v, nil
}

// Write stores a page image write-through and refreshes the buffered copy.
// Any cached decode of the page is dropped (and the store's page version
// advances, so stale decodes can never resurface).
func (b *Buffer) Write(id PageID, data []byte) error {
	if err := b.store.WritePage(id, data); err != nil {
		return err
	}
	b.stats.Writes++
	delete(b.decoded, id)
	if i, ok := b.index[id]; ok {
		b.fill(i, data)
		b.moveToFront(i)
		return nil
	}
	i := b.take()
	b.fill(i, data)
	b.admit(i, id, true)
	return nil
}

// Evict drops a page from the pool (e.g. after freeing it in the file),
// along with its cached decode.
func (b *Buffer) Evict(id PageID) {
	delete(b.decoded, id)
	if i, ok := b.index[id]; ok {
		b.unlink(i)
		delete(b.index, id)
		b.release(i)
	}
}

// Release runs File.Release on the buffer's store, an in-memory File,
// and forgets the decodes of the pages it then reads from base: they
// are decoded again when a reader next needs them. The pool and its
// Stats are untouched, so the I/O accounting is that of a File holding
// every image.
func (b *Buffer) Release(base Store) error {
	f, ok := b.store.(*File)
	if !ok {
		return fmt.Errorf("pagefile: release needs an in-memory store, have %T", b.store)
	}
	if err := f.Release(base); err != nil {
		return err
	}
	for id := range b.decoded {
		if int(id) < len(f.pages) && f.pages[id] == nil {
			delete(b.decoded, id)
		}
	}
	return nil
}
