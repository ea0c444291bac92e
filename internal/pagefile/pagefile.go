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
//
// A File may hold only part of its images: a nil entry in its page table
// reads the page from its base, the Snapshot the table was handed to or
// the container written from it (Release). Versions, the free list and
// every other table stay the File's own.
type File struct {
	pageSize int
	pages    [][]byte
	freed    map[PageID]bool
	freeList []PageID
	// versions counts the writes each page has received; Buffer decode
	// caches validate against it, so any write exactly invalidates every
	// cached parse of the page's previous image.
	versions []uint64
	base     Store // holds the images of the nil entries in pages
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
		if f.pages[id] == nil {
			// The image is the base's, which may hold the id freed or
			// still read it: a reused page starts zeroed.
			f.pages[id] = make([]byte, f.pageSize)
		}
		return id
	}
	id := PageID(len(f.pages))
	f.pages = append(f.pages, make([]byte, f.pageSize))
	f.versions = append(f.versions, 0)
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
	if p == nil { // the write replaces the whole image: no copy of the base's
		p = make([]byte, f.pageSize)
		f.pages[id] = p
	}
	copy(p, data)
	for i := len(data); i < f.pageSize; i++ {
		p[i] = 0
	}
	return nil
}

// ReadPage implements Store, copying the page image into dst. A nil
// entry is read from the base; with a nil dst it is only checked.
func (f *File) ReadPage(id PageID, dst []byte) error {
	if err := f.check(id); err != nil {
		return err
	}
	if p := f.pages[id]; p != nil {
		copy(dst, p)
		return nil
	}
	if dst == nil {
		return nil
	}
	return f.base.ReadPage(id, dst)
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
// now. It takes the file's page table, leaving the file a table of nils
// whose base is the snapshot: a write gives a page a buffer of its own,
// so nothing the snapshot holds changes under it. Pages free when the
// snapshot is taken keep their image in the file, so a reused id starts
// from its old bytes. A page freed while the snapshot is open leaves its
// image with the snapshot: reused before Close hands the image back, or
// after Release, it starts zeroed, as a page read from a container does.
// The snapshot may be read from one goroutine while the file's owner keeps
// allocating, freeing and writing; its base must stay open meanwhile.
// Snapshot and the snapshot's Close swap the file's page table, so they
// must not run concurrently with the file's mutators or readers.
func (f *File) Snapshot() Store {
	s := &snapshot{
		File: &File{
			pageSize: f.pageSize,
			pages:    f.pages,
			freed:    maps.Clone(f.freed),
			freeList: slices.Clone(f.freeList),
			versions: slices.Clone(f.versions),
			base:     f.base,
		},
		owner: f,
	}
	f.pages = make([][]byte, len(s.pages))
	for _, id := range f.freeList {
		f.pages[id], s.pages[id] = s.pages[id], nil
	}
	f.base = s
	return s
}

// snapshot is the read-only Store Snapshot returns: a File of tables
// nothing writes.
type snapshot struct {
	*File
	owner *File
}

// ReadOnly reports that the store rejects mutation.
func (s *snapshot) ReadOnly() bool { return true }

// Allocate implements Store; a snapshot is frozen.
func (s *snapshot) Allocate() PageID { return InvalidPage }

// Free implements Store; a snapshot is frozen.
func (s *snapshot) Free(PageID) error { return ErrReadOnly }

// WritePage implements Store; a snapshot is frozen.
func (s *snapshot) WritePage(PageID, []byte) error { return ErrReadOnly }

// Close implements Store. Unless Release put a container in its place,
// it hands the owner its images back: each page the owner has not
// written since, and the snapshot's base. Later calls do nothing.
func (s *snapshot) Close() error {
	o := s.owner
	if o.base != Store(s) {
		return nil
	}
	for id, p := range s.pages {
		if o.pages[id] == nil {
			o.pages[id] = p
		}
	}
	o.base = s.base
	return nil
}

// Release puts base, the container written from the snapshot the file
// reads through, in the snapshot's place: the pages the file has not
// written since are read from base, and the snapshot's images are its
// alone. A file reading through no snapshot, or a base of another page
// size or count, is refused and nothing changes. Release must not run
// concurrently with the file's mutators or readers.
func (f *File) Release(base Store) error {
	s, ok := f.base.(*snapshot)
	if !ok || base.PageSize() != f.pageSize || base.NumAllocated() != len(s.pages) {
		return fmt.Errorf("pagefile: release onto a base of %d pages of %d bytes, not a snapshot's container",
			base.NumAllocated(), base.PageSize())
	}
	f.base = base
	return nil
}

// Resident returns the number of live pages whose image is held in
// memory, by the file or by the snapshot it reads through: every live
// page, but for those read from a container.
func (f *File) Resident() int {
	s, _ := f.base.(*snapshot)
	n := 0
	for id, p := range f.pages {
		if !f.freed[PageID(id)] && (p != nil || s != nil && id < len(s.pages) && s.pages[id] != nil) {
			n++
		}
	}
	return n
}

// Over returns a File with the allocation state of base (page ids, free
// list, reuse order), every page at version 0 and released onto base:
// Materialize without reading a page. Writes give pages images of their
// own; reads of the others go to base, which must outlive the File's use
// of it.
func Over(base Store) *File {
	f := New(base.PageSize())
	f.pages = make([][]byte, base.NumAllocated())
	f.versions = make([]uint64, len(f.pages))
	for _, id := range base.FreeList() {
		f.freed[id] = true
		f.freeList = append(f.freeList, id)
	}
	f.base = base
	return f
}
