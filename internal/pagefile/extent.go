package pagefile

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"slices"
	"sync"
)

// source abstracts where an opened extent's page bytes are read from: a
// positioned read or a memory mapping. Offsets are relative to the
// extent's payload.
type source interface {
	readAt(p []byte, off int64) error
	close() error
}

// readerSource reads with positioned reads of the container: a file, or a
// container image held in memory.
type readerSource struct {
	r    io.ReaderAt
	base int64 // container offset of the payload region
}

func (s readerSource) readAt(p []byte, off int64) error {
	// An opened extent never reads past its validated length, so EOF here
	// is a truncated or corrupt container, not an unwritten tail.
	return readFullAt(s.r, p, s.base+off)
}

func (s readerSource) close() error { return nil }

// readFullAt fills p from r at off. A read that fills p succeeds even if r
// reports io.EOF with it, as io.ReaderAt allows at the end of the input
// (a bytes.Reader does so for an empty p there).
func readFullAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	return err
}

type mmapSource struct {
	mu      sync.Mutex
	mapping []byte // full page-aligned mapping; munmap target
	data    []byte // the payload region within mapping
}

func (s *mmapSource) readAt(p []byte, off int64) (err error) {
	data := s.data
	if data == nil || off < 0 || off+int64(len(p)) > int64(len(data)) {
		return fmt.Errorf("pagefile: read out of mapped range")
	}
	// A mapped OS page past the end of a file that shrank since it was
	// mapped faults on access. That fails this read like the pread
	// window's short read of the same bytes, not the process.
	defer func() {
		if recover() != nil {
			err = fmt.Errorf("pagefile: mapped read past the end of the file: %w", io.EOF)
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	copy(p, data[off:])
	return nil
}

// close unmaps the region. Idempotent and safe for concurrent callers;
// reads racing a close observe either the mapping or a clean error, but
// the serving layer's refcounting never lets that race happen.
func (s *mmapSource) close() error {
	s.mu.Lock()
	mapping := s.mapping
	s.mapping = nil
	s.data = nil
	s.mu.Unlock()
	if mapping == nil {
		return nil
	}
	return munmapFile(mapping)
}

// newMmapSource maps the payload region of an extent read-only; reads
// address it with the same payload-relative offsets the pread source
// uses. It fails where mmap is unavailable (platform or filesystem).
func newMmapSource(f *os.File, base, payload int64) (*mmapSource, error) {
	if !mmapSupported {
		return nil, errMmapUnsupported
	}
	src := &mmapSource{}
	if payload > 0 {
		align := int64(os.Getpagesize())
		aligned := base &^ (align - 1)
		mapping, err := mmapFile(f, aligned, int(base-aligned+payload))
		if err != nil {
			return nil, fmt.Errorf("pagefile: mapping extent: %w", err)
		}
		src.mapping = mapping
		src.data = mapping[base-aligned:]
	}
	return src, nil
}

// cpScratch is the per-read working set of an extent: the encoded bytes
// of an STPC page, and the frame an image-less STPF read lands in.
type cpScratch struct {
	enc  []byte
	page []byte
}

// extentStore is the read-only store of an opened page extent, whatever
// its codec. Pages stay at rest in their on-disk form (in the file or the
// mapping) and are read per ReadPage, below the Buffer. An STPF extent has
// no directory: page i is the pageSize bytes at i·pageSize, read straight
// into the caller's frame. An STPC extent has a length directory and each
// page is decoded on a read that asks for its image; with a Buffer on top
// that is a decode miss or a raw Read, so a page whose node is cached is
// read but not decoded again.
//
// The store is frozen: same page ids and free list as the store that was
// saved, version 0 everywhere, ErrReadOnly on mutation, logical Bytes.
// Safe for any number of concurrent readers each owning a private Buffer.
// Close releases the mapping, if any, and the container file if the
// store owns it (OpenFileExtent); otherwise the file stays owned by
// whoever opened it.
type extentStore struct {
	src      source
	sp       layoutSpec
	structOK bool
	pageSize int
	n        int // pages ever allocated
	freed    map[PageID]bool
	freeList []PageID
	offs     []int64 // STPC: offs[i] is page i's offset within src, offs[n] ends the payload; nil for STPF
	pool     sync.Pool
	file     *os.File // the container file Close closes; nil when the caller owns it
}

// newExtentStore starts the store of an extent of n allocated pages from
// the numFree page ids at the front of dir, the extent's free list.
func newExtentStore(pageSize, n, numFree int, dir []byte) (*extentStore, error) {
	e := &extentStore{
		pageSize: pageSize,
		n:        n,
		freed:    make(map[PageID]bool, numFree),
		freeList: make([]PageID, 0, numFree),
	}
	for i := 0; i < numFree; i++ {
		id := PageID(binary.LittleEndian.Uint32(dir[4*i:]))
		if int(id) >= n {
			return nil, fmt.Errorf("pagefile: free page %d out of range", id)
		}
		e.freed[id] = true
		e.freeList = append(e.freeList, id)
	}
	return e, nil
}

// open attaches the source of the requested flavour to a store whose
// directory is parsed; base is the offset of the page payload in r and
// payload its length:
//
//   - BackendMmap maps the payload of a container file — zero read
//     syscalls — and falls back to pread where mapping is unavailable or
//     r is no file;
//   - any other flavour reads each page with one positioned read (the
//     facade's openIndexFile refuses a flavour Backend.Check does not
//     name).
func (e *extentStore) open(r io.ReaderAt, base, payload int64, flavour Backend) *extentStore {
	e.src = readerSource{r: r, base: base}
	if f, ok := r.(*os.File); ok && flavour == BackendMmap {
		if src, err := newMmapSource(f, base, payload); err == nil {
			e.src = src
		}
	}
	return e
}

// PageSize implements Store.
func (e *extentStore) PageSize() int { return e.pageSize }

// NumPages implements Store.
func (e *extentStore) NumPages() int { return e.n - len(e.freeList) }

// NumAllocated implements Store.
func (e *extentStore) NumAllocated() int { return e.n }

// Bytes implements Store: the logical live footprint, like every other
// backend — codecs change at-rest size, not store observables.
func (e *extentStore) Bytes() int64 { return int64(e.NumPages()) * int64(e.pageSize) }

// FreeList implements Store.
func (e *extentStore) FreeList() []PageID { return append([]PageID(nil), e.freeList...) }

// ReadOnly reports that the store rejects mutation.
func (e *extentStore) ReadOnly() bool { return true }

// Allocate implements Store; opened extents are frozen.
func (e *extentStore) Allocate() PageID { return InvalidPage }

// Free implements Store; opened extents are frozen.
func (e *extentStore) Free(PageID) error { return ErrReadOnly }

// WritePage implements Store; opened extents are frozen.
func (e *extentStore) WritePage(PageID, []byte) error { return ErrReadOnly }

// Version implements Store; frozen pages never change, so decodes never
// go stale.
func (e *extentStore) Version(PageID) uint64 { return 0 }

// Check implements Store.
func (e *extentStore) Check(id PageID) error {
	if int(id) >= e.n || (len(e.freed) > 0 && e.freed[id]) {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	return nil
}

func (e *extentStore) scratch() *cpScratch {
	if s, ok := e.pool.Get().(*cpScratch); ok {
		return s
	}
	return &cpScratch{page: make([]byte, e.pageSize)}
}

// ReadPage implements Store with one read of the source per call. An
// STPF page is read into dst; an STPC page's encoded bytes are read, then
// decoded into dst. With a nil dst either reads the page's bytes into the
// pooled scratch and stops there.
func (e *extentStore) ReadPage(id PageID, dst []byte) error {
	if err := e.Check(id); err != nil {
		return err
	}
	if e.offs == nil {
		if dst == nil {
			s := e.scratch()
			defer e.pool.Put(s)
			dst = s.page
		}
		if err := e.src.readAt(dst[:e.pageSize], int64(id)*int64(e.pageSize)); err != nil {
			return fmt.Errorf("pagefile: reading page %d: %w", id, err)
		}
		return nil
	}
	s := e.scratch()
	defer e.pool.Put(s)
	l := int(e.offs[id+1] - e.offs[id])
	if cap(s.enc) < l {
		s.enc = make([]byte, l)
	}
	s.enc = s.enc[:l]
	if err := e.src.readAt(s.enc, e.offs[id]); err != nil {
		return fmt.Errorf("pagefile: reading compressed page %d: %w", id, err)
	}
	if dst == nil {
		return nil
	}
	return cpDecodePage(s.enc, dst[:e.pageSize], e.sp, e.structOK, uint32(id))
}

// storedRun reads the stored bytes of the STPC pages [i, j), adjacent
// in the payload, into buf (grown as needed) with one read of the
// source, and decodes each into frame, a scratch page: a page a read
// would refuse is refused here too.
func (e *extentStore) storedRun(buf []byte, i, j int, frame []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], int(e.offs[j]-e.offs[i]))[:e.offs[j]-e.offs[i]]
	if err := e.src.readAt(buf, e.offs[i]); err != nil {
		return buf, fmt.Errorf("pagefile: reading compressed pages %d to %d: %w", i, j-1, err)
	}
	for id := i; id < j; id++ {
		enc := buf[e.offs[id]-e.offs[i] : e.offs[id+1]-e.offs[i]]
		if err := cpDecodePage(enc, frame, e.sp, e.structOK, uint32(id)); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Close implements Store, releasing the source (the mapping, for mmap;
// nothing for pread), then the container file if the store owns it
// (OpenFileExtent).
func (e *extentStore) Close() error {
	err := e.src.close()
	if e.file != nil {
		if ferr := e.file.Close(); err == nil {
			err = ferr
		}
	}
	return err
}

var _ Store = (*extentStore)(nil)

// Materialize copies every live page of a store into a new in-memory File
// with the identical allocation state (page ids, free list, reuse order),
// every page at version 0. Re-encoding the result is byte-identical to
// re-encoding the store it came from. Over an opened extent it is the
// eager load (DecodeIndex), and the File is writable.
func Materialize(s Store) (*File, error) {
	f := New(s.PageSize())
	for i := 0; i < s.NumAllocated(); i++ {
		id := f.Allocate()
		if s.Check(id) != nil {
			continue
		}
		if err := s.ReadPage(id, f.pages[id]); err != nil {
			return nil, err
		}
	}
	for _, id := range s.FreeList() {
		if err := f.Free(id); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Verify reads every live page of a store in full, keeping none: over an
// opened extent, a page that would fail a later read (corrupt, or in a
// retired mode) fails here.
func Verify(s Store) error {
	page := make([]byte, s.PageSize())
	for i := 0; i < s.NumAllocated(); i++ {
		id := PageID(i)
		if s.Check(id) != nil {
			continue
		}
		if err := s.ReadPage(id, page); err != nil {
			return err
		}
	}
	return nil
}
