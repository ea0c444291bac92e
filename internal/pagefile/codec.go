package pagefile

import (
	"fmt"
	"io"
	"os"
)

// Codec is the page-extent serialisation boundary underneath the index
// structures: it owns the on-disk byte format of a page extent (the
// page-store section of a saved STIC container) while everything above —
// Store semantics, Buffer accounting, the shared cache — keeps operating
// on raw page images. A codec must round-trip exactly: for every store,
// opening what WriteExtent produced yields an observationally identical
// read-only store (same page ids, free list, page images, version 0,
// ErrReadOnly on mutation), regardless of flavour. Decoding happens at
// the store boundary, below the Buffer and the SharedCache, so cached
// pages are always decoded images, and only a read that asks for an image
// decodes: a Buffer miss whose node is already decoded reads the page's
// bytes without expanding them.
type Codec interface {
	// Name is the stable external name ("identity", "compressed") used by
	// flags and the STINDEX_CODEC environment variable.
	Name() string
	// ID is the stable byte written into the container header.
	ID() byte
	// WriteExtent serialises a store's pages — including freed slots, so
	// page ids stay stable — to w. The layout hint names the node format
	// the pages hold; codecs that exploit it must fall back to a lossless
	// generic encoding for any page that does not match, so a wrong or
	// LayoutOpaque hint costs compression, never correctness.
	WriteExtent(w io.Writer, s Store, layout Layout) (int64, error)
	// OpenExtent opens the extent at offset off of r, a container of size
	// bytes (a file, or an image in memory), as a read-only store of the
	// requested open flavour (disk/mmap/mem, see extentStore.open). Only
	// the header and directory are read here, and an extent claiming more
	// bytes than size holds is refused. The caller retains ownership of r.
	// Returns the store and the total extent length in bytes, its at-rest
	// size.
	OpenExtent(r io.ReaderAt, off, size int64, flavour Backend) (Store, int64, error)
}

// Layout hints which node format an extent's pages hold, so the
// compressed codec can apply its structural encoders. It is advisory:
// every codec is lossless for arbitrary page content under any hint.
type Layout byte

const (
	// LayoutOpaque promises nothing about page content.
	LayoutOpaque Layout = 0
	// Value 1 is reserved: it named the hrtree node page while the HR-tree
	// was a persisted kind. An extent carrying it still opens (its
	// directory is what InspectContainer reads) but has no structural
	// spec.

	// LayoutPPR is the pprtree node page (also used by the stream
	// indexer): a 24-byte header (leaf flag, entry count, node interval)
	// followed by 56-byte entries of a 2-D rect, insert/delete
	// timestamps and a 64-bit reference.
	LayoutPPR Layout = 2
	// LayoutRStar is the rstar node page: an 8-byte header followed by
	// 56-byte entries of a 3-D box (6×float64) and a 64-bit reference.
	LayoutRStar Layout = 3
)

// Codec IDs as written into container headers. Identity is 0 so that
// version-1 containers — written before the codec byte existed, with the
// byte position reserved-as-zero — parse uniformly as identity.
const (
	CodecIDIdentity   byte = 0
	CodecIDCompressed byte = 1
)

// EnvCodec is the environment variable consulted by DefaultCodec.
// Setting STINDEX_CODEC=identity saves every default-configured
// container — including the whole test suite — uncompressed.
const EnvCodec = "STINDEX_CODEC"

// CodecIdentity is the pass-through codec: raw fixed-size pages in the
// historical STPF extent format. Containers it writes are byte-identical
// to pre-codec (version 1) containers.
var CodecIdentity Codec = identityCodec{}

// CodecCompressed is the compressing codec: the STPC extent format with
// per-page structural compression (XOR-delta-encoded MBR coordinates,
// varint counts/refs/intervals).
var CodecCompressed Codec = compressedCodec{}

// codecs is the registry, indexed by header ID.
var codecs = []Codec{CodecIdentity, CodecCompressed}

// CodecByID resolves a container header's codec byte.
func CodecByID(id byte) (Codec, error) {
	if int(id) < len(codecs) {
		return codecs[id], nil
	}
	return nil, fmt.Errorf("pagefile: unknown codec id %d", id)
}

// CodecByName resolves a codec flag or STINDEX_CODEC value. The empty
// name selects the default.
func CodecByName(name string) (Codec, error) {
	if name == "" {
		return DefaultCodec(), nil
	}
	for _, c := range codecs {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("pagefile: unknown codec %q", name)
}

// DefaultCodec returns the *save* codec selected by the STINDEX_CODEC
// environment variable, defaulting to compressed — new writes compress;
// old containers always open through the codec named in their header.
// Unknown values fall back to the default, as DefaultOpenBackend's do.
func DefaultCodec() Codec {
	if os.Getenv(EnvCodec) == CodecIdentity.Name() {
		return CodecIdentity
	}
	return CodecCompressed
}

// identityCodec wraps the historical STPF raw-page extent functions.
type identityCodec struct{}

func (identityCodec) Name() string { return "identity" }
func (identityCodec) ID() byte     { return CodecIDIdentity }

func (identityCodec) WriteExtent(w io.Writer, s Store, _ Layout) (int64, error) {
	return WriteExtent(w, s)
}

func (identityCodec) OpenExtent(r io.ReaderAt, off, size int64, flavour Backend) (Store, int64, error) {
	return OpenExtent(r, off, size, flavour)
}
