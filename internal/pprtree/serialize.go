package pprtree

import (
	"fmt"
	"io"
	"math"
	"slices"

	"stindex/internal/nodes"
	"stindex/internal/pagefile"
	"stindex/internal/section"
)

// Tree meta layout (little endian), written by WriteMeta:
//
//	magic     [4]byte "STPP"
//	version   uint32  1
//	options   MaxEntries u32, PVersion/PSvo/PSvu f64, PageSize u32, BufferPages u32
//	state     now i64, size u64, alive u64
//	roots     count u32, then per span: page u32, start i64, end i64, height u32
//	backRefs  present u8 (0 or 1); if 1: count u32, then per child: child u32,
//	          parents count u32, parents u32...
//
// The pages are not part of it: the index container stores them after the
// meta section as a page extent, written by a page codec, and hands the
// opened extent to AttachStore.
const (
	treeMagic   = "STPP"
	treeVersion = 1

	// maxPageIDs bounds the meta's counts: a root span, a back-referenced
	// child and each of its parents name a page, and a page id is a u32.
	maxPageIDs = math.MaxUint32
)

// WriteMeta serialises everything except the page extent: options, state,
// root log and online-mode back references.
func (t *Tree) WriteMeta(w io.Writer) (int64, error) {
	if err := t.nodes.Settled(); err != nil {
		return 0, err
	}
	sw := section.NewWriter(w)
	sw.Magic(treeMagic, treeVersion)
	sw.U32(uint32(t.opts.MaxEntries))
	sw.F64(t.opts.PVersion)
	sw.F64(t.opts.PSvo)
	sw.F64(t.opts.PSvu)
	sw.U32(uint32(t.opts.PageSize))
	sw.U32(uint32(t.opts.BufferPages))
	sw.I64(t.now)
	sw.U64(uint64(t.size))
	sw.U64(uint64(t.alive))
	sw.U32(uint32(len(t.roots)))
	for _, r := range t.roots {
		sw.U32(uint32(r.page))
		sw.I64(r.start)
		sw.I64(r.end)
		sw.U32(uint32(r.height))
	}
	if t.backRefs == nil {
		sw.U8(0)
		return sw.Flush()
	}
	sw.U8(1)
	sw.U32(uint32(len(t.backRefs)))
	var parents []pagefile.PageID // reused: a freeze writes this meta under its handle lock
	for _, c := range sortedPages(t.backRefs) {
		parents = parents[:0]
		for p := range t.backRefs[c] {
			parents = append(parents, p)
		}
		slices.Sort(parents)
		sw.U32(uint32(c))
		sw.U32(uint32(len(parents)))
		for _, p := range parents {
			sw.U32(uint32(p))
		}
	}
	return sw.Flush()
}

// sortedPages returns the keys of a page-keyed map in ascending order.
func sortedPages[V any](m map[pagefile.PageID]V) []pagefile.PageID {
	ids := make([]pagefile.PageID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// ReadMeta deserialises a WriteMeta image into a store-less tree; the
// caller must AttachStore before use. Its reads are exact, so a following
// section of the same stream is not consumed.
func ReadMeta(r io.Reader) (*Tree, error) {
	sr := section.NewReader(r)
	sr.Magic(treeMagic, treeVersion)
	opts := Options{
		MaxEntries:  int(sr.U32()),
		PVersion:    sr.F64(),
		PSvo:        sr.F64(),
		PSvu:        sr.F64(),
		PageSize:    int(sr.U32()),
		BufferPages: int(sr.U32()),
	}
	t := &Tree{now: sr.I64(), size: int(sr.U64()), alive: int(sr.U64())}
	numRoots := sr.Count32("root span count", maxPageIDs)
	for i := 0; i < numRoots && sr.Err() == nil; i++ {
		t.roots = append(t.roots, rootSpan{
			page:   pagefile.PageID(sr.U32()),
			start:  sr.I64(),
			end:    sr.I64(),
			height: int(sr.U32()),
		})
	}
	switch flag := sr.U8(); flag {
	case 0:
	case 1:
		t.backRefs = make(map[pagefile.PageID]map[pagefile.PageID]struct{})
		children := sr.Count32("back-referenced child count", maxPageIDs)
		for i := 0; i < children && sr.Err() == nil; i++ {
			child := pagefile.PageID(sr.U32())
			numParents := sr.Count32("parent count", maxPageIDs)
			set := make(map[pagefile.PageID]struct{}, min(numParents, 1024)) // untrusted: cap the hint
			for j := 0; j < numParents && sr.Err() == nil; j++ {
				set[pagefile.PageID(sr.U32())] = struct{}{}
			}
			t.backRefs[child] = set
		}
	default:
		sr.Fail(fmt.Errorf("back-references flag %d, want 0 or 1", flag))
	}
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("pprtree: reading meta: %w", err)
	}
	if opts.BufferPages > nodes.MaxStoredBufferPages { // fail here, not OOM in AttachStore
		return nil, fmt.Errorf("pprtree: stored buffer pool of %d pages is implausible", opts.BufferPages)
	}
	var err error
	if t.opts, err = opts.withDefaults(); err != nil {
		return nil, fmt.Errorf("pprtree: stored options invalid: %w", err)
	}
	return t, nil
}

// AttachStore gives a ReadMeta tree its page store (either backend) and a
// cold buffer pool, then validates the root log against the store. The
// tree takes no ownership of the store's backing resources. What the last
// bracket kept is dropped: the next one reads the live nodes from store.
func (t *Tree) AttachStore(store pagefile.Store) error {
	if store.PageSize() != t.opts.PageSize {
		return fmt.Errorf("pprtree: page size mismatch: options %d, store %d", t.opts.PageSize, store.PageSize())
	}
	t.attach(store)
	if err := t.validateRootLog(); err != nil {
		return fmt.Errorf("pprtree: stored root log invalid: %w", err)
	}
	return nil
}
