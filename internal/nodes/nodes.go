// Package nodes is the layer between the three trees' decoded nodes and
// their pages, written once: the store, the LRU buffer and the encode
// scratch, the read for update, the shared read, the write, the
// write-back bracket and the query view. A tree supplies only what
// differs (Kind).
//
// Inside a bracket (Batch) the live nodes stay resident in a table keyed
// by page id: reads hand out the resident node, a write of a live node
// only marks it dirty, a node that is not live is written once and leaves
// the table, and the dirty rest is written in ascending page-id order
// before Batch returns. A bracket that succeeds keeps its table, clean,
// for the next one; a write or free outside a bracket, Attach or a
// failure drops it. A failed bracket poisons the layer: every later read,
// write and bracket returns the failure. Outside a bracket every update
// is write-through, and the pages come out byte-identical either way
// (DESIGN.md, "Node layer").
package nodes

import (
	"encoding/binary"
	"fmt"
	"slices"

	"stindex/internal/pagefile"
)

// The three kinds' pages open with one 8-byte header — a flags byte (bit
// 0: leaf), a zero byte, the entry count (u16), four zero bytes — which a
// kind's own header fields and its fixed-size entries follow.
const flagLeaf = 0x01

// PutHeader sizes buf for count entries of entrySize after a header of
// headerSize bytes, writes the shared 8 bytes and returns buf.
func PutHeader(buf []byte, headerSize, entrySize, count int, leaf bool) []byte {
	if need := headerSize + count*entrySize; cap(buf) < need {
		buf = make([]byte, need)
	} else {
		buf = buf[:need]
	}
	buf[0], buf[1] = 0, 0
	if leaf {
		buf[0] = flagLeaf
	}
	binary.LittleEndian.PutUint16(buf[2:], uint16(count))
	binary.LittleEndian.PutUint32(buf[4:], 0)
	return buf
}

// Fits checks that maxEntries entries of entrySize fit a page of pageSize
// after a header of headerSize bytes.
func Fits(name string, pageSize, headerSize, entrySize, maxEntries int) error {
	if fit := (pageSize - headerSize) / entrySize; fit < maxEntries {
		return fmt.Errorf("%s: page size %d fits only %d entries, need %d", name, pageSize, fit, maxEntries)
	}
	return nil
}

// Header reads the shared header of a page image: the leaf flag and the
// entry count, checked against the image's length.
func Header(name string, id pagefile.PageID, data []byte, headerSize, entrySize int) (leaf bool, count int, err error) {
	if len(data) < headerSize {
		return false, 0, fmt.Errorf("%s: page %d too short (%d bytes)", name, id, len(data))
	}
	count = int(binary.LittleEndian.Uint16(data[2:]))
	if need := headerSize + count*entrySize; len(data) < need {
		return false, 0, fmt.Errorf("%s: page %d truncated: %d entries need %d bytes, have %d", name, id, count, need, len(data))
	}
	return data[0]&flagLeaf != 0, count, nil
}

// Node is a tree's decoded page.
type Node interface {
	PageID() pagefile.PageID
	Len() int                 // entries, held to Kind.Capacity on a write
	Encode(buf []byte) []byte // the page image, in buf when it is long enough
}

// Kind is what one tree supplies to its layer. Live nil means every node
// is live; Prepare (a live node parsed for update) and Open (a bracket
// opening on the last one's table, kept, or on an empty one) may be nil.
type Kind[N Node] struct {
	Name     string                                           // error prefix
	Capacity int                                              // the most entries a written node may hold
	Decode   func(id pagefile.PageID, data []byte) (N, error) // must not retain data
	Live     func(n N) bool
	Prepare  func(n N)
	Open     func(kept bool) error
}

type slot[N any] struct {
	n     N
	dirty bool // ahead of its page image
}

// Layer is one tree's node layer, unusable until Attach.
type Layer[N Node] struct {
	kind     Kind[N]
	cached   func(pagefile.PageID, []byte) (any, error) // Kind.Decode for the decode cache
	store    pagefile.Store
	buf      *pagefile.Buffer
	enc      []byte
	resident map[pagefile.PageID]slot[N] // the open bracket's table, else nil
	kept     map[pagefile.PageID]slot[N] // the last bracket's table, until dropped
	dirty    []pagefile.PageID           // flush scratch
	failed   error                       // the failure that poisoned the layer
}

// MaxStoredBufferPages bounds a pool size read from a container: the
// field is untrusted and sizes an eager allocation in Attach.
const MaxStoredBufferPages = 1 << 20

// Attach points the layer at store with a cold buffer of bufferPages
// pages, dropping any table.
func (l *Layer[N]) Attach(kind Kind[N], store pagefile.Store, bufferPages int) {
	decode := kind.Decode
	*l = Layer[N]{
		kind:   kind,
		cached: func(id pagefile.PageID, data []byte) (any, error) { return decode(id, data) },
		store:  store,
		buf:    pagefile.NewBuffer(store, bufferPages),
	}
}

// View returns a read-only layer over the same store with a private cold
// buffer (and decode cache) and no table, for queries concurrent with
// other views and with l as long as nobody writes.
func (l *Layer[N]) View() Layer[N] {
	return Layer[N]{kind: l.kind, cached: l.cached, store: l.store,
		buf: pagefile.NewBuffer(l.store, l.buf.Capacity()), failed: l.failed}
}

func (l *Layer[N]) Store() pagefile.Store    { return l.store }
func (l *Layer[N]) Buffer() *pagefile.Buffer { return l.buf }
func (l *Layer[N]) Err() error               { return l.failed }
func (l *Layer[N]) InBracket() bool          { return l.resident != nil }
func (l *Layer[N]) Kept() bool               { return l.kept != nil }

// Settled is nil when the pages are the whole truth, so the tree may be
// serialised: no bracket is open and the layer is not poisoned.
func (l *Layer[N]) Settled() error {
	if l.failed == nil && l.resident != nil {
		return fmt.Errorf("%s: serialising inside an open write-back bracket (pages are behind the resident nodes)", l.kind.Name)
	}
	return l.failed
}

// Resident returns the open bracket's node for page id, if it holds one.
func (l *Layer[N]) Resident(id pagefile.PageID) (N, bool) {
	s, ok := l.resident[id]
	return s.n, ok
}

func (l *Layer[N]) live(n N) bool { return l.kind.Live == nil || l.kind.Live(n) }

// Read returns the node for a mutating path to edit and write back: the
// resident node inside a bracket, otherwise a private parse.
func (l *Layer[N]) Read(id pagefile.PageID) (n N, err error) {
	if l.failed != nil {
		return n, l.failed
	}
	if s, ok := l.resident[id]; ok {
		return s.n, nil
	}
	data, err := l.buf.Read(id)
	if err != nil {
		return n, err
	}
	return l.Parse(id, data)
}

// Parse is Read's second half, after one pool request for the image: the
// private parse, and for a live node Kind.Prepare and its place in the
// open bracket's table.
func (l *Layer[N]) Parse(id pagefile.PageID, data []byte) (N, error) {
	n, err := l.kind.Decode(id, data)
	if err != nil || !l.live(n) {
		return n, err
	}
	if l.kind.Prepare != nil {
		l.kind.Prepare(n)
	}
	if l.resident != nil {
		l.resident[id] = slot[N]{n: n}
	}
	return n, nil
}

// ReadShared returns the resident node inside a bracket, else the node
// through the buffer's decode cache. Callers must not mutate it. The I/O
// accounting is Read's.
func (l *Layer[N]) ReadShared(id pagefile.PageID) (n N, err error) {
	if l.failed != nil {
		return n, l.failed
	}
	if s, ok := l.resident[id]; ok {
		return s.n, nil
	}
	v, err := l.buf.ReadDecoded(id, l.cached)
	if err != nil {
		return n, err
	}
	return v.(N), nil
}

// Write stores n after a capacity check: inside a bracket a live node is
// only marked dirty and any other is written and leaves the table;
// outside one the write goes through and drops the kept table.
func (l *Layer[N]) Write(n N) error {
	id := n.PageID()
	if n.Len() > l.kind.Capacity {
		return fmt.Errorf("%s: node %d has %d entries, exceeding capacity %d", l.kind.Name, id, n.Len(), l.kind.Capacity)
	}
	if l.resident == nil {
		l.kept = nil
	} else if l.live(n) {
		l.resident[id] = slot[N]{n: n, dirty: true}
		return nil
	} else {
		delete(l.resident, id)
	}
	l.enc = n.Encode(l.enc)
	return l.buf.Write(id, l.enc)
}

// Free releases page id in the store, its node and its pool frame.
func (l *Layer[N]) Free(id pagefile.PageID) error {
	if l.resident == nil {
		l.kept = nil
	}
	delete(l.resident, id)
	l.buf.Evict(id)
	return l.store.Free(id)
}

// Batch runs fn inside a write-back bracket, open for exactly this call
// and flushed before it returns; a failure of Kind.Open, fn or the flush
// poisons the layer. A Batch inside fn runs in the bracket already open.
func (l *Layer[N]) Batch(fn func() error) error {
	if l.failed != nil {
		return l.failed
	}
	if l.resident != nil {
		return fn()
	}
	kept := l.kept != nil
	l.resident, l.kept = l.kept, nil
	if !kept {
		l.resident = make(map[pagefile.PageID]slot[N])
	}
	var err error
	if l.kind.Open != nil {
		err = l.kind.Open(kept)
	}
	if err == nil {
		err = fn()
	}
	if err == nil {
		err = l.flush()
	}
	if err == nil {
		l.kept = l.resident
	}
	l.resident = nil
	if err != nil {
		l.failed = fmt.Errorf("%s: tree unusable after failed write-back bracket: %w", l.kind.Name, err)
	}
	return err
}

// Flush writes the open bracket's dirty nodes and empties its table, once
// the resident nodes have all stopped being live; outside a bracket it
// drops the kept table.
func (l *Layer[N]) Flush() error {
	if l.resident == nil {
		l.kept = nil
		return nil
	}
	err := l.flush()
	clear(l.resident)
	return err
}

// flush writes the dirty nodes in ascending page-id order, then clean.
func (l *Layer[N]) flush() error {
	l.dirty = l.dirty[:0]
	for id, s := range l.resident {
		if s.dirty {
			l.dirty = append(l.dirty, id)
		}
	}
	slices.Sort(l.dirty)
	for _, id := range l.dirty {
		n := l.resident[id].n
		l.enc = n.Encode(l.enc)
		if err := l.buf.Write(id, l.enc); err != nil {
			return err
		}
		l.resident[id] = slot[N]{n: n}
	}
	return nil
}
