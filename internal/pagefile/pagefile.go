// Package pagefile simulates the disk underneath the index structures: a
// page-addressed store with fixed-size pages, plus an LRU buffer pool with
// exact I/O accounting.
//
// The paper's experimental metric is the number of disk accesses needed to
// answer a query through a 10-page LRU buffer that is reset before every
// query. That number is a deterministic function of the tree layout and the
// buffer policy, so an in-memory simulation reproduces it exactly; only
// wall-clock latencies differ from spinning rust.
package pagefile

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
)

// PageID addresses a page within a File. Zero is a valid page; use
// InvalidPage for "no page".
type PageID uint32

// InvalidPage is the nil page reference.
const InvalidPage PageID = 0xFFFFFFFF

// DefaultPageSize fits a 50-entry node of either tree with headroom, the
// node capacity used throughout the paper's experiments.
const DefaultPageSize = 4096

// Common errors.
var (
	ErrPageTooLarge = errors.New("pagefile: page image exceeds page size")
	ErrBadPage      = errors.New("pagefile: page id out of range or freed")
)

// File is the in-memory Store: an append-only-growing collection of
// fixed-size pages with a free list. It is the simulated "disk"; all
// latencies are zero, all accounting is done by the Buffer on top.
//
// Concurrent reads: a File whose pages are no longer being mutated — no
// Allocate, Free or write calls in flight, the frozen state of a built
// index — is safe for any number of concurrent readers. Each reader must
// own its Buffer (Buffers are not safe for concurrent use); the File
// underneath is then shared without locking. This is what makes
// per-worker query views over one index possible. A File still being
// written is read from another goroutine through a Snapshot.
type File struct {
	pageSize int
	pages    [][]byte
	freed    map[PageID]bool
	freeList []PageID
	// versions counts the writes each page has received; Buffer decode
	// caches validate against it, so any write exactly invalidates every
	// cached parse of the page's previous image.
	versions []uint64
	// stamps holds, per page, the snapshot generation its image buffer
	// was allocated in (nil until the first Snapshot, so a file never
	// snapshotted keeps none), and gen is the current generation: every
	// Snapshot starts a new one and shares the buffers stamped before
	// it. snaps counts the snapshots not yet closed. While one is open,
	// a write to a page stamped before gen gives the page a fresh buffer
	// first, so no snapshot sees an image change under it.
	stamps []uint64
	gen    uint64
	snaps  atomic.Int64
}

// New creates an empty file with the given page size.
func New(pageSize int) *File {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &File{pageSize: pageSize, freed: make(map[PageID]bool)}
}

// PageSize returns the size of every page in bytes.
func (f *File) PageSize() int { return f.pageSize }

// NumPages returns the number of live (allocated, not freed) pages.
func (f *File) NumPages() int { return len(f.pages) - len(f.freeList) }

// NumAllocated returns the number of pages ever allocated, including freed
// ones that have not been reused; it bounds the file's footprint.
func (f *File) NumAllocated() int { return len(f.pages) }

// Bytes returns the live disk footprint in bytes.
func (f *File) Bytes() int64 { return int64(f.NumPages()) * int64(f.pageSize) }

// FreeList returns a copy of the free list in reuse order.
func (f *File) FreeList() []PageID { return append([]PageID(nil), f.freeList...) }

// Allocate reserves a page and returns its id. Freed pages are reused.
func (f *File) Allocate() PageID {
	if n := len(f.freeList); n > 0 {
		id := f.freeList[n-1]
		f.freeList = f.freeList[:n-1]
		delete(f.freed, id)
		f.versions[id]++ // a reused id is logically a new page
		return id
	}
	id := PageID(len(f.pages))
	f.pages = append(f.pages, make([]byte, f.pageSize))
	f.versions = append(f.versions, 0)
	if f.stamps != nil {
		f.stamps = append(f.stamps, f.gen)
	}
	return id
}

// Free releases a page for reuse.
func (f *File) Free(id PageID) error {
	if err := f.check(id); err != nil {
		return err
	}
	f.freed[id] = true
	f.freeList = append(f.freeList, id)
	return nil
}

// write stores a page image. Images shorter than the page size are
// zero-padded (the remainder of the page keeps its previous content
// overwritten with zeros, as a real overwrite would).
func (f *File) write(id PageID, data []byte) error {
	if err := f.check(id); err != nil {
		return err
	}
	if len(data) > f.pageSize {
		return fmt.Errorf("%w: %d > %d", ErrPageTooLarge, len(data), f.pageSize)
	}
	f.versions[id]++
	p := f.pages[id]
	if f.snaps.Load() > 0 && f.stamps[id] < f.gen {
		// An open snapshot may share this buffer: the write replaces
		// the whole image, so a fresh buffer needs no copy of the old.
		p = make([]byte, f.pageSize)
		f.pages[id], f.stamps[id] = p, f.gen
	}
	copy(p, data)
	for i := len(data); i < f.pageSize; i++ {
		p[i] = 0
	}
	return nil
}

// read returns the stored page image. The returned slice aliases the
// file's storage; callers must not retain it across writes.
func (f *File) read(id PageID) ([]byte, error) {
	if err := f.check(id); err != nil {
		return nil, err
	}
	return f.pages[id], nil
}

// ReadPage implements Store, copying the page image into dst.
func (f *File) ReadPage(id PageID, dst []byte) error {
	data, err := f.read(id)
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

// WritePage implements Store.
func (f *File) WritePage(id PageID, data []byte) error { return f.write(id, data) }

// Version implements Store: the page's write counter. It changes exactly
// when the page image can have changed (writes, id reuse), so it is a
// sound cache validator for decoded copies of the image. An out-of-range
// id reports version 0 rather than panicking — corrupt references must
// surface as read errors, never crash the accounting path.
func (f *File) Version(id PageID) uint64 {
	if int(id) >= len(f.versions) {
		return 0
	}
	return f.versions[id]
}

// Check implements Store.
func (f *File) Check(id PageID) error { return f.check(id) }

// Close implements Store; the in-memory store holds no resources.
func (f *File) Close() error { return nil }

func (f *File) check(id PageID) error {
	if int(id) >= len(f.pages) || f.freed[id] {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	return nil
}

var _ Store = (*File)(nil)

// Snapshot returns a read-only Store over the file's pages as they are
// now. It copies the page, free-list and version tables, not the page
// images: those stay shared until the file writes one of them, which
// then gets a fresh buffer (see stamps). The snapshot may be read from
// one goroutine while the file's owner keeps allocating, freeing and
// writing; Snapshot itself must not run concurrently with those. Close
// the snapshot when done with it: from then on writes stop copying.
func (f *File) Snapshot() Store {
	if f.stamps == nil {
		f.stamps = make([]uint64, len(f.pages))
	}
	f.gen++
	f.snaps.Add(1)
	return &snapshot{
		File: &File{
			pageSize: f.pageSize,
			pages:    slices.Clone(f.pages),
			freed:    maps.Clone(f.freed),
			freeList: slices.Clone(f.freeList),
			versions: slices.Clone(f.versions),
		},
		owner: f,
	}
}

// snapshot is the read-only Store Snapshot returns: a File of its own
// tables, which nothing writes, over the owner's page buffers.
type snapshot struct {
	*File
	owner  *File
	closed atomic.Bool
}

// ReadOnly reports that the store rejects mutation.
func (s *snapshot) ReadOnly() bool { return true }

// Allocate implements Store; a snapshot is frozen.
func (s *snapshot) Allocate() PageID { return InvalidPage }

// Free implements Store; a snapshot is frozen.
func (s *snapshot) Free(PageID) error { return ErrReadOnly }

// WritePage implements Store; a snapshot is frozen.
func (s *snapshot) WritePage(PageID, []byte) error { return ErrReadOnly }

// Close implements Store: it releases the snapshot's claim on the
// owner's page buffers. Later calls do nothing.
func (s *snapshot) Close() error {
	if !s.closed.Swap(true) {
		s.owner.snaps.Add(-1)
	}
	return nil
}
