package pagefile

import (
	"errors"
	"os"
)

// Backend names a page-store implementation.
type Backend string

const (
	// BackendDefault defers to the STINDEX_BACKEND environment variable,
	// falling back to the in-memory store.
	BackendDefault Backend = ""
	// BackendMemory is the in-memory simulated disk (File).
	BackendMemory Backend = "mem"
	// BackendDisk is the file-backed flavour: a build writes its pages to
	// a real file (DiskStore), and an opened container's pages stay in the
	// container file and are read lazily on demand, one positioned read a
	// page (the frozen extent store, see OpenExtent).
	BackendDisk Backend = "disk"
	// BackendMmap is the memory-mapped flavour of the container window:
	// opened extents are mapped read-only, so page reads cost zero
	// syscalls. It only exists as an *open* flavour — building an
	// index with BackendMmap uses the file-backed DiskStore (a build
	// mutates pages, which a mapping cannot), and the mmap choice takes
	// effect when the saved container is opened.
	BackendMmap Backend = "mmap"
)

// EnvBackend is the environment variable consulted by DefaultBackend.
// Setting STINDEX_BACKEND=disk runs every default-configured index —
// including the whole test suite — on the file-backed store.
const EnvBackend = "STINDEX_BACKEND"

// ErrReadOnly is returned by mutating operations on a read-only store
// (an index container opened lazily from disk).
var ErrReadOnly = errors.New("pagefile: store is read-only")

// Store is the pluggable page-store backend underneath the index
// structures: a page-addressed collection of fixed-size pages with a
// LIFO free list and per-page version counters. There are three
// implementations: the in-memory File and the file-backed DiskStore, the
// two a build writes, and the frozen extent store an opened container is
// read through. The two build stores are required to be observationally
// identical for every allocate/free/read/write sequence, and the frozen
// store to the store that was saved, so the Buffer's I/O accounting (the
// paper's AvgIO metric) is bit-identical regardless of backend.
//
// Concurrent-read guarantee: a Store whose pages are no longer being
// mutated — no Allocate, Free or WritePage in flight, the frozen state of
// a built or lazily opened index — is safe for any number of concurrent
// readers, each owning its own Buffer. Concretely, Check, ReadPage,
// Version, PageSize, NumPages, NumAllocated, Bytes and FreeList may all
// be called from any goroutine against a frozen store without locking;
// every implementation upholds this (File reads immutable slices,
// DiskStore and the opened extent store use positioned ReadAt, atomic per
// call, or a read-only mapping). Mutation requires external
// synchronisation and invalidates the guarantee while it is in flight.
// The serving layer's session pool relies on exactly this contract: one
// frozen store, many per-worker Buffers.
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

// DefaultBackend returns the *build* backend selected by the
// STINDEX_BACKEND environment variable, defaulting to memory. "mmap"
// selects the disk store for builds (mmap is a read-only open flavour;
// see BackendMmap) so that STINDEX_BACKEND=mmap runs builds on real
// files and opens on mappings.
func DefaultBackend() Backend {
	switch Backend(os.Getenv(EnvBackend)) {
	case BackendDisk, BackendMmap:
		return BackendDisk
	default:
		return BackendMemory
	}
}

// DefaultOpenBackend returns the *open* flavour selected by the
// STINDEX_BACKEND environment variable: "mmap" opens saved containers
// through memory mappings, anything else through the lazily read pread
// window (the historical default — "mem" deliberately does NOT eager-load
// opens, so the env variable keeps its established meaning for builds).
func DefaultOpenBackend() Backend {
	if Backend(os.Getenv(EnvBackend)) == BackendMmap {
		return BackendMmap
	}
	return BackendDisk
}

// NewStore creates an empty store of the requested backend.
// BackendDefault consults STINDEX_BACKEND. The disk backend is backed by
// an unlinked temporary file, so it never outlives the process.
func NewStore(backend Backend, pageSize int) (Store, error) {
	if backend == BackendDefault {
		backend = DefaultBackend()
	}
	switch backend {
	case BackendMemory:
		return New(pageSize), nil
	case BackendDisk, BackendMmap:
		// Builds mutate pages; mmap is a read-only open flavour, so a
		// "mmap" build lands on the file-backed store (same layout, same
		// container image — the mapping happens at open time).
		return NewDiskStore(pageSize)
	default:
		return nil, errors.New("pagefile: unknown backend " + string(backend))
	}
}
