package rstar

import (
	"encoding/binary"
	"fmt"
	"io"

	"stindex/internal/pagefile"
)

// Tree meta layout (little endian), written by WriteMeta:
//
//	magic    [4]byte "STRS"
//	version  uint32 1
//	options  MaxEntries, MinEntries, ReinsertCount, PageSize, BufferPages (u32 each)
//	state    root u32, height u32, size u64
//
// The pages are not part of it: the index container stores them after the
// meta section as a page extent, written by a page codec, and hands the
// opened extent to AttachStore.
const (
	rstarMagic   = "STRS"
	rstarVersion = 1

	// maxStoredBufferPages bounds the deserialised pool size; the field is
	// untrusted container input and sizes an eager allocation.
	maxStoredBufferPages = 1 << 20
)

const rstarMetaSize = 4 + 4 + 5*4 + 4 + 4 + 8

// WriteMeta serialises everything except the page extent: options and
// root/height/size state.
func (t *Tree) WriteMeta(w io.Writer) (int64, error) {
	header := make([]byte, rstarMetaSize)
	copy(header, rstarMagic)
	off := 4
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(header[off:], v)
		off += 4
	}
	put32(rstarVersion)
	put32(uint32(t.opts.MaxEntries))
	put32(uint32(t.opts.MinEntries))
	put32(uint32(t.opts.ReinsertCount))
	put32(uint32(t.opts.PageSize))
	put32(uint32(t.opts.BufferPages))
	put32(uint32(t.root))
	put32(uint32(t.height))
	binary.LittleEndian.PutUint64(header[off:], uint64(t.size))

	m, err := w.Write(header)
	return int64(m), err
}

// ReadMeta deserialises a WriteMeta image into a store-less tree; the
// caller must AttachStore before use. It performs a single exact-size
// read, so a following section of the same stream is not consumed.
func ReadMeta(r io.Reader) (*Tree, error) {
	header := make([]byte, rstarMetaSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("rstar: reading header: %w", err)
	}
	if string(header[:4]) != rstarMagic {
		return nil, fmt.Errorf("rstar: bad magic %q", header[:4])
	}
	off := 4
	get32 := func() uint32 {
		v := binary.LittleEndian.Uint32(header[off:])
		off += 4
		return v
	}
	if v := get32(); v != rstarVersion {
		return nil, fmt.Errorf("rstar: unsupported version %d", v)
	}
	opts := Options{
		MaxEntries:    int(get32()),
		MinEntries:    int(get32()),
		ReinsertCount: int(get32()),
		PageSize:      int(get32()),
		BufferPages:   int(get32()),
	}
	// The stored pool size is untrusted and sizes an eager allocation in
	// AttachStore; a corrupt value must fail here, not OOM there.
	if opts.BufferPages > maxStoredBufferPages {
		return nil, fmt.Errorf("rstar: stored buffer pool of %d pages is implausible", opts.BufferPages)
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("rstar: stored options invalid: %w", err)
	}
	root := pagefile.PageID(get32())
	height := int(get32())
	size := int(binary.LittleEndian.Uint64(header[off:]))
	if height < 1 || size < 0 {
		return nil, fmt.Errorf("rstar: implausible stored state height=%d size=%d", height, size)
	}
	return &Tree{
		opts:   opts,
		root:   root,
		height: height,
		size:   size,
	}, nil
}

// AttachStore gives a ReadMeta tree its page store (either backend) and a
// cold buffer pool, validating the root page against the store. The tree
// takes no ownership of the store's backing resources.
func (t *Tree) AttachStore(store pagefile.Store) error {
	if store.PageSize() != t.opts.PageSize {
		return fmt.Errorf("rstar: page size mismatch: options %d, store %d", t.opts.PageSize, store.PageSize())
	}
	if err := store.Check(t.root); err != nil {
		return fmt.Errorf("rstar: stored root invalid: %w", err)
	}
	t.file = store
	t.buf = pagefile.NewBuffer(store, t.opts.BufferPages)
	return nil
}
