package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"stindex/internal/geom"
	"stindex/internal/owner"
	"stindex/internal/pagefile"
	"stindex/internal/pprtree"
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

	if err := wr([]byte(streamMagic)); err != nil {
		return n, err
	}
	for _, step := range []error{
		u32(streamVersion),
		f64(ix.opts.Lambda),
		u64(uint64(ix.owners.Records())), u64(uint64(ix.cuts)),
		u32(uint32(len(ix.live))),
	} {
		if step != nil {
			return n, step
		}
	}
	liveIDs := make([]int64, 0, len(ix.live))
	for id := range ix.live {
		liveIDs = append(liveIDs, id)
	}
	sort.Slice(liveIDs, func(i, j int) bool { return liveIDs[i] < liveIDs[j] })
	for _, id := range liveIDs {
		st := ix.live[id]
		for _, step := range []error{
			u64(uint64(id)), u64(st.ref),
			f64(st.rect.MinX), f64(st.rect.MinY), f64(st.rect.MaxX), f64(st.rect.MaxY),
			u64(uint64(st.start)), u64(uint64(st.lastT)), u64(uint64(st.length)),
		} {
			if step != nil {
				return n, step
			}
		}
	}
	if err := u32(uint32(ix.owners.Records())); err != nil {
		return n, err
	}
	for ref, o := range ix.owners.Ord {
		if err := u64(uint64(ref)); err != nil {
			return n, err
		}
		if err := u64(uint64(ix.owners.IDs[o])); err != nil {
			return n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	tn, err := ix.tree.WriteMeta(w)
	return n + tn, err
}

// ReadMeta deserialises a WriteMeta image into a store-less indexer; the
// caller must AttachStore before use. It performs plain unbuffered reads,
// so a following section of the same stream is not consumed.
func ReadMeta(r io.Reader) (*Indexer, error) {
	var scratch [8]byte
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	u64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	f64 := func() (float64, error) {
		v, err := u64()
		return math.Float64frombits(v), err
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("stream: reading magic: %w", err)
	}
	if string(magic) != streamMagic {
		return nil, fmt.Errorf("stream: bad magic %q", magic)
	}
	imgVersion, err := u32()
	if err != nil {
		return nil, err
	}
	if imgVersion != streamVersion {
		return nil, fmt.Errorf("stream: unsupported version %d", imgVersion)
	}
	ix := &Indexer{live: make(map[int64]*pieceState)}
	if ix.opts.Lambda, err = f64(); err != nil {
		return nil, err
	}
	if ix.opts.Lambda < 0 || math.IsNaN(ix.opts.Lambda) {
		return nil, fmt.Errorf("stream: stored lambda %g invalid", ix.opts.Lambda)
	}
	nextRef, err := u64()
	if err != nil {
		return nil, err
	}
	if v, err := u64(); err != nil {
		return nil, err
	} else {
		ix.cuts = int(v)
	}
	numLive, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < numLive; i++ {
		var id int64
		st := &pieceState{}
		if v, err := u64(); err != nil {
			return nil, err
		} else {
			id = int64(v)
		}
		if st.ref, err = u64(); err != nil {
			return nil, err
		}
		if st.ref >= nextRef {
			return nil, fmt.Errorf("stream: live piece ref %d beyond nextRef %d", st.ref, nextRef)
		}
		var rect geom.Rect
		if rect.MinX, err = f64(); err != nil {
			return nil, err
		}
		if rect.MinY, err = f64(); err != nil {
			return nil, err
		}
		if rect.MaxX, err = f64(); err != nil {
			return nil, err
		}
		if rect.MaxY, err = f64(); err != nil {
			return nil, err
		}
		if !rect.Valid() {
			return nil, fmt.Errorf("stream: live piece %d has invalid rect", id)
		}
		st.rect = rect
		if v, err := u64(); err != nil {
			return nil, err
		} else {
			st.start = int64(v)
		}
		if v, err := u64(); err != nil {
			return nil, err
		} else {
			st.lastT = int64(v)
		}
		if v, err := u64(); err != nil {
			return nil, err
		} else {
			st.length = int(v)
		}
		if st.length < 1 || st.lastT < st.start {
			return nil, fmt.Errorf("stream: live piece %d has implausible lifetime", id)
		}
		if _, dup := ix.live[id]; dup {
			return nil, fmt.Errorf("stream: duplicate live object %d", id)
		}
		ix.live[id] = st
	}
	numOwners, err := u32()
	if err != nil {
		return nil, err
	}
	if uint64(numOwners) != nextRef {
		return nil, fmt.Errorf("stream: %d owners for %d record refs", numOwners, nextRef)
	}
	// The count is untrusted input: let reading drive the allocation.
	var ids []int64
	for i := uint32(0); i < numOwners; i++ {
		ref, err := u64()
		if err != nil {
			return nil, err
		}
		if ref != uint64(i) {
			return nil, fmt.Errorf("stream: owner ref %d out of order (want %d)", ref, i)
		}
		v, err := u64()
		if err != nil {
			return nil, err
		}
		ids = append(ids, int64(v))
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
