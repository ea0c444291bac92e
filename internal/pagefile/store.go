package pagefile

import (
	"errors"
	"fmt"
	"slices"
)

// Backend names the open flavour of a saved container's page extents:
// how the frozen extent store reads its pages (see OpenExtent). Every
// build writes to the in-memory File; the flavour only matters once a
// container is opened, and never changes what a read returns. The eager
// load is no flavour: it is Materialize over the opened store.
type Backend string

const (
	// BackendDisk, also the zero value, leaves an opened container's
	// pages in the container file and reads them lazily, one positioned
	// read a page: the pread window.
	BackendDisk Backend = "disk"
	// BackendMmap maps an opened container's page extents read-only, so
	// page reads cost zero syscalls. It falls back to the pread window
	// where mapping is unavailable.
	BackendMmap Backend = "mmap"
)

// Backends lists every open flavour by name.
var Backends = []Backend{BackendDisk, BackendMmap}

// Check reports whether b names an open flavour; the zero value is
// BackendDisk. The error of an unknown name lists the flavours.
func (b Backend) Check() error {
	if b == "" || slices.Contains(Backends, b) {
		return nil
	}
	return fmt.Errorf("unknown open flavour %q (want %s or %s)", string(b), BackendDisk, BackendMmap)
}

// ErrReadOnly is returned by mutating operations on a read-only store
// (an index container opened lazily from disk).
var ErrReadOnly = errors.New("pagefile: store is read-only")

// Store is the page store underneath the index structures: a
// page-addressed collection of fixed-size pages with a LIFO free list and
// per-page version counters. There are two implementations: the
// in-memory File, which every build writes, and the frozen extent store
// an opened container is read through (see OpenExtent). The frozen store
// is required to be observationally identical to the File it was saved
// from, so the Buffer's I/O accounting (the paper's AvgIO metric) is
// bit-identical whether an index was built or opened, and whatever its
// open flavour.
//
// Concurrent-read guarantee: a Store whose pages are no longer being
// mutated — no Allocate, Free or WritePage in flight, the frozen state of
// a built or lazily opened index — is safe for any number of concurrent
// readers, each owning its own Buffer. Concretely, Check, ReadPage,
// Version, PageSize, NumPages, NumAllocated, Bytes and FreeList may all
// be called from any goroutine against a frozen store without locking;
// both implementations uphold this (File reads immutable slices, the
// opened extent store uses positioned ReadAt, atomic per call, or a
// read-only mapping). Mutation requires external synchronisation and
// invalidates the guarantee while it is in flight. The serving layer's
// session pool relies on exactly this contract: one frozen store, many
// per-worker Buffers.
type Store interface {
	// PageSize returns the size of every page in bytes.
	PageSize() int
	// NumPages returns the number of live (allocated, not freed) pages.
	NumPages() int
	// NumAllocated returns the number of pages ever allocated, including
	// freed ones that have not been reused; it bounds the footprint.
	NumAllocated() int
	// Bytes returns the live footprint in bytes.
	Bytes() int64
	// FreeList returns a copy of the free list in reuse order (the last
	// element is reused first).
	FreeList() []PageID
	// Allocate reserves a page and returns its id, reusing freed pages
	// LIFO. On a read-only store it returns InvalidPage.
	Allocate() PageID
	// Free releases a page for reuse.
	Free(id PageID) error
	// Check reports whether id addresses a live page, without touching it.
	Check(id PageID) error
	// ReadPage copies the page image into dst, which must hold exactly
	// PageSize bytes. A nil dst reads the page without producing its
	// image: the same read, with the same errors, minus the codec work.
	ReadPage(id PageID, dst []byte) error
	// WritePage stores a page image; images shorter than PageSize are
	// zero-padded.
	WritePage(id PageID, data []byte) error
	// Version returns the page's write counter. It changes exactly when
	// the page image can have changed (writes, id reuse), so it is a
	// sound cache validator for decoded copies of the image.
	Version(id PageID) uint64
	// Close releases any resources backing the store (file descriptors).
	// Closing the in-memory store is a no-op. Closing a store shared by
	// query views invalidates every view.
	Close() error
}
