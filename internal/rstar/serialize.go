package rstar

import (
	"fmt"
	"io"

	"stindex/internal/nodes"
	"stindex/internal/pagefile"
	"stindex/internal/section"
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
)

// WriteMeta serialises everything except the page extent: options and
// root/height/size state.
func (t *Tree) WriteMeta(w io.Writer) (int64, error) {
	if err := t.nodes.Settled(); err != nil {
		return 0, err
	}
	sw := section.NewWriter(w)
	sw.Magic(rstarMagic, rstarVersion)
	sw.U32(uint32(t.opts.MaxEntries))
	sw.U32(uint32(t.opts.MinEntries))
	sw.U32(uint32(t.opts.ReinsertCount))
	sw.U32(uint32(t.opts.PageSize))
	sw.U32(uint32(t.opts.BufferPages))
	sw.U32(uint32(t.root))
	sw.U32(uint32(t.height))
	sw.U64(uint64(t.size))
	return sw.Flush()
}

// ReadMeta deserialises a WriteMeta image into a store-less tree; the
// caller must AttachStore before use. Its reads are exact, so a following
// section of the same stream is not consumed.
func ReadMeta(r io.Reader) (*Tree, error) {
	sr := section.NewReader(r)
	sr.Magic(rstarMagic, rstarVersion)
	opts := Options{
		MaxEntries:    int(sr.U32()),
		MinEntries:    int(sr.U32()),
		ReinsertCount: int(sr.U32()),
		PageSize:      int(sr.U32()),
		BufferPages:   int(sr.U32()),
	}
	t := &Tree{root: pagefile.PageID(sr.U32()), height: int(sr.U32()), size: int(sr.U64())}
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("rstar: reading meta: %w", err)
	}
	if opts.BufferPages > nodes.MaxStoredBufferPages { // fail here, not OOM in AttachStore
		return nil, fmt.Errorf("rstar: stored buffer pool of %d pages is implausible", opts.BufferPages)
	}
	var err error
	if t.opts, err = opts.withDefaults(); err != nil {
		return nil, fmt.Errorf("rstar: stored options invalid: %w", err)
	}
	if t.height < 1 || t.size < 0 {
		return nil, fmt.Errorf("rstar: implausible stored state height=%d size=%d", t.height, t.size)
	}
	return t, nil
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
	// A tree of height h has a page on each of its h levels.
	if t.height > store.NumPages() {
		return fmt.Errorf("rstar: stored height %d above the store's %d pages", t.height, store.NumPages())
	}
	t.attach(store)
	return nil
}
