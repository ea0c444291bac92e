package pprtree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"stindex/internal/pagefile"
)

// Tree meta layout (little endian), written by WriteMeta:
//
//	magic     [4]byte "STPP"
//	version   uint32  1
//	options   MaxEntries u32, PVersion/PSvo/PSvu f64, PageSize u32, BufferPages u32
//	state     now i64, size u64, alive u64
//	roots     count u32, then per span: page u32, start i64, end i64, height u32
//	backRefs  present u8; if 1: count u32, then per child: child u32,
//	          parents count u32, parents u32...
//
// The pages are not part of it: the index container stores them after the
// meta section as a page extent, written by a page codec, and hands the
// opened extent to AttachStore.
const (
	treeMagic   = "STPP"
	treeVersion = 1

	// maxStoredBufferPages bounds the deserialised pool size; the field is
	// untrusted container input and sizes an eager allocation.
	maxStoredBufferPages = 1 << 20
)

// WriteMeta serialises everything except the page extent: options, state,
// root log and online-mode back references.
func (t *Tree) WriteMeta(w io.Writer) (int64, error) {
	if t.failed != nil {
		return 0, t.failed
	}
	if t.resident != nil {
		return 0, fmt.Errorf("pprtree: serialising inside an open write-back bracket (pages are behind the resident nodes)")
	}
	bw := bufio.NewWriter(w)
	var n int64
	wr := func(data []byte) error {
		m, err := bw.Write(data)
		n += int64(m)
		return err
	}
	u32 := func(v uint32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		return wr(b[:])
	}
	u64 := func(v uint64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return wr(b[:])
	}
	f64 := func(v float64) error { return u64(math.Float64bits(v)) }

	if err := wr([]byte(treeMagic)); err != nil {
		return n, err
	}
	for _, step := range []error{
		u32(treeVersion),
		u32(uint32(t.opts.MaxEntries)),
		f64(t.opts.PVersion), f64(t.opts.PSvo), f64(t.opts.PSvu),
		u32(uint32(t.opts.PageSize)), u32(uint32(t.opts.BufferPages)),
		u64(uint64(t.now)), u64(uint64(t.size)), u64(uint64(t.alive)),
		u32(uint32(len(t.roots))),
	} {
		if step != nil {
			return n, step
		}
	}
	for _, r := range t.roots {
		if err := u32(uint32(r.page)); err != nil {
			return n, err
		}
		if err := u64(uint64(r.start)); err != nil {
			return n, err
		}
		if err := u64(uint64(r.end)); err != nil {
			return n, err
		}
		if err := u32(uint32(r.height)); err != nil {
			return n, err
		}
	}
	if t.backRefs == nil {
		if err := wr([]byte{0}); err != nil {
			return n, err
		}
	} else {
		if err := wr([]byte{1}); err != nil {
			return n, err
		}
		if err := u32(uint32(len(t.backRefs))); err != nil {
			return n, err
		}
		children := make([]pagefile.PageID, 0, len(t.backRefs))
		for c := range t.backRefs {
			children = append(children, c)
		}
		sort.Slice(children, func(i, j int) bool { return children[i] < children[j] })
		for _, c := range children {
			if err := u32(uint32(c)); err != nil {
				return n, err
			}
			parents := make([]pagefile.PageID, 0, len(t.backRefs[c]))
			for p := range t.backRefs[c] {
				parents = append(parents, p)
			}
			sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
			if err := u32(uint32(len(parents))); err != nil {
				return n, err
			}
			for _, p := range parents {
				if err := u32(uint32(p)); err != nil {
					return n, err
				}
			}
		}
	}
	return n, bw.Flush()
}

// ReadMeta deserialises a WriteMeta image into a store-less tree; the
// caller must AttachStore before use. It performs plain unbuffered reads,
// so a following section of the same stream is not consumed.
func ReadMeta(r io.Reader) (*Tree, error) {
	br := r
	var scratch [8]byte
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	u64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	f64 := func() (float64, error) {
		v, err := u64()
		return math.Float64frombits(v), err
	}

	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("pprtree: reading magic: %w", err)
	}
	if string(magic) != treeMagic {
		return nil, fmt.Errorf("pprtree: bad magic %q", magic)
	}
	version, err := u32()
	if err != nil {
		return nil, err
	}
	if version != treeVersion {
		return nil, fmt.Errorf("pprtree: unsupported version %d", version)
	}
	var opts Options
	if v, err := u32(); err != nil {
		return nil, err
	} else {
		opts.MaxEntries = int(v)
	}
	if opts.PVersion, err = f64(); err != nil {
		return nil, err
	}
	if opts.PSvo, err = f64(); err != nil {
		return nil, err
	}
	if opts.PSvu, err = f64(); err != nil {
		return nil, err
	}
	if v, err := u32(); err != nil {
		return nil, err
	} else {
		opts.PageSize = int(v)
	}
	if v, err := u32(); err != nil {
		return nil, err
	} else {
		opts.BufferPages = int(v)
	}
	// The stored pool size is untrusted and sizes an eager allocation in
	// AttachStore; a corrupt value must fail here, not OOM there.
	if opts.BufferPages > maxStoredBufferPages {
		return nil, fmt.Errorf("pprtree: stored buffer pool of %d pages is implausible", opts.BufferPages)
	}
	opts, err = opts.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("pprtree: stored options invalid: %w", err)
	}

	t := &Tree{opts: opts}
	if v, err := u64(); err != nil {
		return nil, err
	} else {
		t.now = int64(v)
	}
	if v, err := u64(); err != nil {
		return nil, err
	} else {
		t.size = int(v)
	}
	if v, err := u64(); err != nil {
		return nil, err
	} else {
		t.alive = int(v)
	}
	numRoots, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < numRoots; i++ {
		var span rootSpan
		if v, err := u32(); err != nil {
			return nil, err
		} else {
			span.page = pagefile.PageID(v)
		}
		if v, err := u64(); err != nil {
			return nil, err
		} else {
			span.start = int64(v)
		}
		if v, err := u64(); err != nil {
			return nil, err
		} else {
			span.end = int64(v)
		}
		if v, err := u32(); err != nil {
			return nil, err
		} else {
			span.height = int(v)
		}
		t.roots = append(t.roots, span)
	}
	flag := make([]byte, 1)
	if _, err := io.ReadFull(br, flag); err != nil {
		return nil, err
	}
	if flag[0] == 1 {
		t.backRefs = make(map[pagefile.PageID]map[pagefile.PageID]struct{})
		count, err := u32()
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < count; i++ {
			child, err := u32()
			if err != nil {
				return nil, err
			}
			numParents, err := u32()
			if err != nil {
				return nil, err
			}
			hint := numParents
			if hint > 1024 {
				hint = 1024 // untrusted count: cap the allocation hint
			}
			set := make(map[pagefile.PageID]struct{}, hint)
			for j := uint32(0); j < numParents; j++ {
				p, err := u32()
				if err != nil {
					return nil, err
				}
				set[pagefile.PageID(p)] = struct{}{}
			}
			t.backRefs[pagefile.PageID(child)] = set
		}
	}
	return t, nil
}

// AttachStore gives a ReadMeta tree its page store (either backend) and a
// cold buffer pool, then validates the root log against the store. The
// tree takes no ownership of the store's backing resources.
func (t *Tree) AttachStore(store pagefile.Store) error {
	if store.PageSize() != t.opts.PageSize {
		return fmt.Errorf("pprtree: page size mismatch: options %d, store %d", t.opts.PageSize, store.PageSize())
	}
	t.file = store
	t.buf = pagefile.NewBuffer(store, t.opts.BufferPages)
	if err := t.validateRootLog(); err != nil {
		return fmt.Errorf("pprtree: stored root log invalid: %w", err)
	}
	return nil
}
