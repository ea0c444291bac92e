package pagefile

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Identity page-extent layout (little endian) — the page-store section
// of a container whose header names codec 0. Builds before compressed
// became the only written codec wrote it; it is decode-only:
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

// openIdentityExtent opens the STPF extent at offset off of r (see
// OpenExtent): only the header and free list are read here; page images
// stay at rest until a Buffer faults them in.
func openIdentityExtent(r io.ReaderAt, off, size int64, flavour Backend) (Store, int64, error) {
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
	return e.open(r, off+extentHeaderSize+dirLen, payload, flavour), length, nil
}
