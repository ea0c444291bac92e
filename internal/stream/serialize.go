package stream

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"

	"stindex/internal/geom"
	"stindex/internal/owner"
	"stindex/internal/pagefile"
	"stindex/internal/pprtree"
	"stindex/internal/section"
)

// Indexer meta layout (little endian), written by WriteMeta:
//
//	magic   [4]byte "STSM"
//	version uint32 1
//	lambda  f64
//	state   nextRef u64, cuts u64
//	live    count u32, then per open piece (sorted by object id):
//	        objID i64, ref u64, rect MinX/MinY/MaxX/MaxY f64,
//	        start i64, lastT i64, length u64
//	owners  count u32 (= nextRef), then per record in ref order 0, 1, …:
//	        ref u64, objID i64
//	tree    pprtree meta (pprtree.WriteMeta)
//
// Maps are serialised in sorted order so the image is deterministic. The
// tree's pages are not part of it: the index container stores them after
// the meta section as a page extent, written by a page codec, and hands
// the opened extent to AttachStore.
const (
	streamMagic   = "STSM"
	streamVersion = 1
)

// WriteMeta serialises everything except the page extent: split-rule
// state, open pieces, record ownership and the tree's meta.
func (ix *Indexer) WriteMeta(w io.Writer) (int64, error) {
	m, err := ix.SnapshotMeta()
	if err != nil {
		return 0, err
	}
	return m.WriteTo(w)
}

// MetaSnapshot is the indexer's meta section taken at one instant and
// written later. Taking it encodes everything but the owner rows, and
// keeps the owner table's length: the indexer only appends to that
// table, so its first rows stay what they were, and WriteTo reads them
// while the indexer goes on applying records.
type MetaSnapshot struct {
	head   []byte      // up to and including the owner count
	owners owner.Table // the table's prefix at the instant
	tail   []byte      // the tree's meta
}

// SnapshotMeta takes a MetaSnapshot. It reads the indexer, so the caller
// serialises it against the indexer's mutators; WriteTo needs no guard.
func (ix *Indexer) SnapshotMeta() (*MetaSnapshot, error) {
	// A freeze calls this under the lock applies wait for, so the head is
	// sized up front (72 B a live object): garbage made here is what a
	// running GC cycle charges the lock holder for.
	var head, tail bytes.Buffer
	head.Grow(64 + 72*len(ix.live))
	sw := section.NewWriter(&head)
	sw.Magic(streamMagic, streamVersion)
	sw.F64(ix.opts.Lambda)
	sw.U64(uint64(ix.owners.Records()))
	sw.U64(uint64(ix.cuts))
	sw.U32(uint32(len(ix.live)))
	liveIDs := make([]int64, 0, len(ix.live))
	for id := range ix.live {
		liveIDs = append(liveIDs, id)
	}
	slices.Sort(liveIDs)
	for _, id := range liveIDs {
		st := ix.live[id]
		sw.I64(id)
		sw.U64(st.ref)
		sw.F64(st.rect.MinX)
		sw.F64(st.rect.MinY)
		sw.F64(st.rect.MaxX)
		sw.F64(st.rect.MaxY)
		sw.I64(st.start)
		sw.I64(st.lastT)
		sw.U64(uint64(st.length))
	}
	sw.U32(uint32(ix.owners.Records()))
	if _, err := sw.Flush(); err != nil {
		return nil, err
	}
	if _, err := ix.tree.WriteMeta(&tail); err != nil {
		return nil, err
	}
	ord, ids := ix.owners.Ord, ix.owners.IDs
	return &MetaSnapshot{
		head:   head.Bytes(),
		owners: owner.Table{Ord: ord[:len(ord):len(ord)], IDs: ids[:len(ids):len(ids)]},
		tail:   tail.Bytes(),
	}, nil
}

// Len returns the length of the section in bytes.
func (m *MetaSnapshot) Len() int {
	return len(m.head) + 16*m.owners.Records() + len(m.tail)
}

// WriteTo writes the section WriteMeta would have written at the instant
// of the snapshot.
func (m *MetaSnapshot) WriteTo(w io.Writer) (int64, error) {
	hn, err := w.Write(m.head)
	if err != nil {
		return int64(hn), err
	}
	sw := section.NewWriter(w)
	for ref, o := range m.owners.Ord {
		sw.U64(uint64(ref))
		sw.I64(m.owners.IDs[o])
	}
	rn, err := sw.Flush()
	n := int64(hn) + rn
	if err != nil {
		return n, err
	}
	tn, err := w.Write(m.tail)
	return n + int64(tn), err
}

// ReadMeta deserialises a WriteMeta image into a store-less indexer; the
// caller must AttachStore before use. Its reads are exact, so a following
// section of the same stream is not consumed.
func ReadMeta(r io.Reader) (*Indexer, error) {
	sr := section.NewReader(r)
	sr.Magic(streamMagic, streamVersion)
	ix := &Indexer{live: make(map[int64]*pieceState)}
	ix.opts.Lambda = sr.F64()
	// Every record has an owner, and the owner count is a u32.
	nextRef := uint64(sr.Count64("record count", math.MaxUint32))
	ix.cuts = int(sr.U64())
	if sr.Err() == nil && (ix.opts.Lambda < 0 || math.IsNaN(ix.opts.Lambda)) {
		return nil, fmt.Errorf("stream: stored lambda %g invalid", ix.opts.Lambda)
	}
	// Each open piece is a distinct record.
	numLive := sr.Count32("open piece count", nextRef)
	for i := 0; i < numLive && sr.Err() == nil; i++ {
		id := sr.I64()
		st := &pieceState{
			ref:    sr.U64(),
			rect:   geom.Rect{MinX: sr.F64(), MinY: sr.F64(), MaxX: sr.F64(), MaxY: sr.F64()},
			start:  sr.I64(),
			lastT:  sr.I64(),
			length: int(sr.U64()),
		}
		switch {
		case sr.Err() != nil:
		case st.ref >= nextRef:
			return nil, fmt.Errorf("stream: live piece ref %d beyond nextRef %d", st.ref, nextRef)
		case !st.rect.Valid():
			return nil, fmt.Errorf("stream: live piece %d has invalid rect", id)
		case st.length < 1 || st.lastT < st.start:
			return nil, fmt.Errorf("stream: live piece %d has implausible lifetime", id)
		case ix.live[id] != nil:
			return nil, fmt.Errorf("stream: duplicate live object %d", id)
		}
		ix.live[id] = st
	}
	numOwners := sr.Count32("owner count", nextRef)
	if sr.Err() == nil && uint64(numOwners) != nextRef {
		return nil, fmt.Errorf("stream: %d owners for %d record refs", numOwners, nextRef)
	}
	// Reading drives the allocation, not the count.
	var ids []int64
	for i := 0; i < numOwners && sr.Err() == nil; i++ {
		if ref := sr.U64(); sr.Err() == nil && ref != uint64(i) {
			return nil, fmt.Errorf("stream: owner ref %d out of order (want %d)", ref, i)
		}
		ids = append(ids, sr.I64())
	}
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("stream: reading meta: %w", err)
	}
	ix.owners = owner.ByRank(len(ids), func(r int) int64 { return ids[r] })
	tree, err := pprtree.ReadMeta(r)
	if err != nil {
		return nil, err
	}
	ix.tree = tree
	return ix, nil
}

// AttachStore gives a ReadMeta indexer's tree its page store (either
// backend) and a cold buffer pool.
func (ix *Indexer) AttachStore(store pagefile.Store) error {
	return ix.tree.AttachStore(store)
}
