package pagefile

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
)

// DiskStore is the file-backed build Store: pages live in an unlinked
// temporary file and are read on demand with ReadAt, so an index built
// with the disk backend never holds its whole image in memory. (Opened
// containers are read by the frozen extent store instead; see
// OpenExtent.)
//
// Allocation, the free list and page versions follow exactly the
// in-memory File's semantics (LIFO reuse, version bump on write and on
// id reuse), so tree layouts — and with them every Buffer I/O count —
// are bit-identical across backends.
//
// Like File, a DiskStore no longer being mutated is safe for concurrent
// readers (ReadAt is atomic per call); mutation is single-writer.
type DiskStore struct {
	f        *os.File
	pageSize int
	n        int // pages ever allocated
	freed    map[PageID]bool
	freeList []PageID
	versions []uint64
	scratch  []byte
	// pages holds *[]byte page buffers for image-less reads (ReadPage with
	// a nil dst); query views of a built index read concurrently.
	pages sync.Pool
}

// NewDiskStore creates an empty read-write store backed by an unlinked
// temporary file: the backing space is reclaimed by the OS when the
// store is closed or the process exits, whichever comes first.
func NewDiskStore(pageSize int) (*DiskStore, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.CreateTemp("", "stindex-pages-*")
	if err != nil {
		return nil, fmt.Errorf("pagefile: creating disk store: %w", err)
	}
	// Unlink immediately: the fd keeps the space alive, nothing leaks on
	// crash. (Linux-style semantics; the container platform guarantees it.)
	_ = os.Remove(f.Name())
	d := &DiskStore{f: f, pageSize: pageSize, freed: make(map[PageID]bool)}
	// Builds routinely abandon stores without closing them (indexes have
	// no mandatory Close); let the GC reclaim the descriptor.
	runtime.SetFinalizer(d, func(d *DiskStore) { _ = d.Close() })
	return d, nil
}

// PageSize implements Store.
func (d *DiskStore) PageSize() int { return d.pageSize }

// NumPages implements Store.
func (d *DiskStore) NumPages() int { return d.n - len(d.freeList) }

// NumAllocated implements Store.
func (d *DiskStore) NumAllocated() int { return d.n }

// Bytes implements Store.
func (d *DiskStore) Bytes() int64 { return int64(d.NumPages()) * int64(d.pageSize) }

// FreeList implements Store.
func (d *DiskStore) FreeList() []PageID { return append([]PageID(nil), d.freeList...) }

// Allocate implements Store.
func (d *DiskStore) Allocate() PageID {
	if n := len(d.freeList); n > 0 {
		id := d.freeList[n-1]
		d.freeList = d.freeList[:n-1]
		delete(d.freed, id)
		d.versions[id]++ // a reused id is logically a new page
		return id
	}
	id := PageID(d.n)
	d.n++
	d.versions = append(d.versions, 0)
	return id
}

// Free implements Store.
func (d *DiskStore) Free(id PageID) error {
	if err := d.Check(id); err != nil {
		return err
	}
	d.freed[id] = true
	d.freeList = append(d.freeList, id)
	return nil
}

// Check implements Store.
func (d *DiskStore) Check(id PageID) error {
	if int(id) >= d.n || d.freed[id] {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	return nil
}

// ReadPage implements Store, reading the page with one positioned read.
// A page allocated but never written reads as zeros (the region beyond
// the file's current end). A nil dst reads into a pooled page buffer.
func (d *DiskStore) ReadPage(id PageID, dst []byte) error {
	if err := d.Check(id); err != nil {
		return err
	}
	if dst == nil {
		p, ok := d.pages.Get().(*[]byte)
		if !ok {
			buf := make([]byte, d.pageSize)
			p = &buf
		}
		defer d.pages.Put(p)
		dst = *p
	}
	dst = dst[:d.pageSize]
	n, err := d.f.ReadAt(dst, int64(id)*int64(d.pageSize))
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		for i := n; i < len(dst); i++ {
			dst[i] = 0
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("pagefile: reading page %d: %w", id, err)
	}
	return nil
}

// WritePage implements Store with one positioned write of a full page;
// shorter images are zero-padded, as a real page overwrite would be.
func (d *DiskStore) WritePage(id PageID, data []byte) error {
	if err := d.Check(id); err != nil {
		return err
	}
	if len(data) > d.pageSize {
		return fmt.Errorf("%w: %d > %d", ErrPageTooLarge, len(data), d.pageSize)
	}
	if len(data) < d.pageSize {
		if d.scratch == nil {
			d.scratch = make([]byte, d.pageSize)
		}
		copy(d.scratch, data)
		for i := len(data); i < d.pageSize; i++ {
			d.scratch[i] = 0
		}
		data = d.scratch
	}
	if _, err := d.f.WriteAt(data, int64(id)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("pagefile: writing page %d: %w", id, err)
	}
	d.versions[id]++
	return nil
}

// Version implements Store. As with File, an out-of-range id reports
// version 0 instead of panicking.
func (d *DiskStore) Version(id PageID) uint64 {
	if int(id) >= len(d.versions) {
		return 0
	}
	return d.versions[id]
}

// Close implements Store, closing (and thereby deleting) the backing
// temporary file. Idempotent.
func (d *DiskStore) Close() error {
	if d.f == nil {
		return nil
	}
	runtime.SetFinalizer(d, nil)
	f := d.f
	d.f = nil
	return f.Close()
}

var _ Store = (*DiskStore)(nil)
