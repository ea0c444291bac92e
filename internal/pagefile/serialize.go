package pagefile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Page-extent layout (little endian) — the page-store section of a saved
// index:
//
//	magic   [4]byte  "STPF"
//	version uint32   1
//	pageSize uint32
//	numPages uint32  (allocated, including freed)
//	numFree  uint32
//	freeList [numFree]uint32
//	pages    numPages × pageSize bytes
//
// Freed pages are written as zeros; their content is unobservable (a
// freed page is never readable until it is reallocated and rewritten).
const (
	fileMagic   = "STPF"
	fileVersion = 1
)

// extentHeaderSize is the fixed part of the extent layout.
const extentHeaderSize = 4 + 4 + 4 + 4 + 4

// maxPageSize bounds the page size accepted from untrusted images.
const maxPageSize = 1 << 22

// WriteExtent serialises a store's pages — including freed slots, so page
// ids stay stable — to w. Works for either backend.
func WriteExtent(w io.Writer, s Store) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(data []byte) error {
		m, err := bw.Write(data)
		n += int64(m)
		return err
	}
	freeList := s.FreeList()
	numPages := s.NumAllocated()
	header := make([]byte, extentHeaderSize)
	copy(header, fileMagic)
	binary.LittleEndian.PutUint32(header[4:], fileVersion)
	binary.LittleEndian.PutUint32(header[8:], uint32(s.PageSize()))
	binary.LittleEndian.PutUint32(header[12:], uint32(numPages))
	binary.LittleEndian.PutUint32(header[16:], uint32(len(freeList)))
	if err := write(header); err != nil {
		return n, err
	}
	buf4 := make([]byte, 4)
	for _, id := range freeList {
		binary.LittleEndian.PutUint32(buf4, uint32(id))
		if err := write(buf4); err != nil {
			return n, err
		}
	}
	page := make([]byte, s.PageSize())
	zero := make([]byte, s.PageSize())
	for i := 0; i < numPages; i++ {
		data := zero
		if err := s.Check(PageID(i)); err == nil {
			if err := s.ReadPage(PageID(i), page); err != nil {
				return n, err
			}
			data = page
		}
		if err := write(data); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// readExtentHeader parses and validates the fixed extent header.
func readExtentHeader(header []byte) (pageSize, numPages, numFree int, err error) {
	if string(header[:4]) != fileMagic {
		return 0, 0, 0, fmt.Errorf("pagefile: bad magic %q", header[:4])
	}
	if v := binary.LittleEndian.Uint32(header[4:]); v != fileVersion {
		return 0, 0, 0, fmt.Errorf("pagefile: unsupported version %d", v)
	}
	pageSize = int(binary.LittleEndian.Uint32(header[8:]))
	numPages = int(binary.LittleEndian.Uint32(header[12:]))
	numFree = int(binary.LittleEndian.Uint32(header[16:]))
	if pageSize <= 0 || pageSize > maxPageSize {
		return 0, 0, 0, fmt.Errorf("pagefile: implausible page size %d", pageSize)
	}
	if numFree > numPages {
		return 0, 0, 0, fmt.Errorf("pagefile: %d free pages exceed %d allocated", numFree, numPages)
	}
	return pageSize, numPages, numFree, nil
}

// OpenExtent opens the STPF extent at offset off of r, a container of
// size bytes, as a read-only store of the requested flavour (see
// extentStore.open): only the header and free list are read here; page
// images stay at rest until a Buffer faults them in. The caller retains
// ownership of r (it must stay open for the store's lifetime). Returns the
// store and the total extent length in bytes, so callers can locate any
// following section.
func OpenExtent(r io.ReaderAt, off, size int64, flavour Backend) (Store, int64, error) {
	header := make([]byte, extentHeaderSize)
	if err := readFullAt(r, header, off); err != nil {
		return nil, 0, fmt.Errorf("pagefile: reading extent header: %w", err)
	}
	pageSize, numPages, numFree, err := readExtentHeader(header)
	if err != nil {
		return nil, 0, err
	}
	dirLen := 4 * int64(numFree)
	payload := int64(numPages) * int64(pageSize)
	length := extentHeaderSize + dirLen + payload
	if off+length > size {
		return nil, 0, fmt.Errorf("pagefile: extent of %d pages × %d bytes truncated at container size %d", numPages, pageSize, size)
	}
	dir := make([]byte, dirLen)
	if err := readFullAt(r, dir, off+extentHeaderSize); err != nil {
		return nil, 0, fmt.Errorf("pagefile: reading free list: %w", err)
	}
	e, err := newExtentStore(pageSize, numPages, numFree, dir)
	if err != nil {
		return nil, 0, err
	}
	s, err := e.open(r, off+extentHeaderSize+dirLen, payload, flavour)
	if err != nil {
		return nil, 0, err
	}
	return s, length, nil
}
