package pagefile

import (
	"fmt"
	"io"
	"os"
)

// A page extent is the page-store section of a saved STIC container.
// Its byte format sits underneath the index structures: everything above
// — Store semantics, Buffer accounting, the shared cache — operates on
// raw page images. WriteExtent writes the compressed STPC format
// (compress.go); OpenExtent also reads the identity STPF format
// (serialize.go) that older builds wrote. Opening what WriteExtent
// produced yields an observationally identical read-only store (same page
// ids, free list, page images, version 0, ErrReadOnly on mutation) in
// every flavour. Decoding happens at the store boundary, below the Buffer
// and the SharedCache, so cached pages are always decoded images, and
// only a read that asks for an image decodes: a Buffer miss whose node is
// already decoded reads the page's bytes without expanding them.

// Layout hints which node format an extent's pages hold, so the
// compressed codec can apply its structural encoders. It is advisory:
// the encoding is lossless for arbitrary page content under any hint.
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
// byte position reserved-as-zero — parse uniformly as identity. Every
// save writes compressed; identity is decode-only.
const (
	CodecIDIdentity   byte = 0
	CodecIDCompressed byte = 1
)

// CodecName is the stable name of a container header's codec byte, as
// InspectContainer reports it.
func CodecName(id byte) (string, error) {
	switch id {
	case CodecIDIdentity:
		return "identity", nil
	case CodecIDCompressed:
		return "compressed", nil
	}
	return "", fmt.Errorf("pagefile: unknown codec id %d", id)
}

// OpenExtent opens the extent at offset off of r, a container of size
// bytes (a file, or an image in memory), as a read-only store of the
// requested open flavour (disk or mmap, see extentStore.open). codec is
// the container header's codec byte and picks the directory parse. Only
// the header and directory are read here, and an extent claiming more
// bytes than size holds is refused. The caller retains ownership of r.
// Returns the store and the total extent length in bytes, its at-rest
// size.
func OpenExtent(r io.ReaderAt, off, size int64, codec byte, flavour Backend) (Store, int64, error) {
	switch codec {
	case CodecIDIdentity:
		return openIdentityExtent(r, off, size, flavour)
	case CodecIDCompressed:
		return openCompressedExtent(r, off, size, flavour)
	}
	return nil, 0, fmt.Errorf("pagefile: unknown codec id %d", codec)
}

// OpenFileExtent is OpenExtent over a container file of size bytes that
// the returned store takes over: its Close releases the store's source
// (a mapping needs its munmap first), then closes f. On error f stays
// the caller's.
func OpenFileExtent(f *os.File, off, size int64, codec byte, flavour Backend) (Store, error) {
	s, _, err := OpenExtent(f, off, size, codec, flavour)
	if err != nil {
		return nil, err
	}
	s.(*extentStore).file = f
	return s, nil
}
