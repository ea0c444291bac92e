package stindex

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"stindex/internal/owner"
	"stindex/internal/pagefile"
	"stindex/internal/pprtree"
	"stindex/internal/rstar"
	"stindex/internal/section"
	"stindex/internal/stream"
)

// Index container layout (little endian) — one self-describing format
// for every index kind:
//
//	magic    [4]byte "STIC"
//	version  u32  2 (1 accepted: the pre-codec format)
//	kind     u8   1 = ppr, 2 = rstar, 5 = stream (3 = hr and 4 = hybrid
//	              are reserved: written before those kinds became in-memory
//	              compositions, refused on open)
//	extents  u8   page extents following the meta section (1; 2 in a
//	              retired hybrid container)
//	codec    u8   0 = identity (raw STPF extents), 1 = compressed (STPC)
//	reserved u8   0
//	metaLen  u64
//	meta     metaLen bytes (kind-specific, see below)
//	extent   page extent(s), serialised by the named codec
//
// Version 1 containers had a reserved u16 of zero where the codec byte
// now sits, so they parse uniformly as codec 0 and open unchanged
// through the identity reader. Every save writes codec 1; identity is
// decode-only.
//
// Meta sections:
//
//	ppr     owner table, pprtree meta
//	rstar   timeScale f64, owner table, rstar meta
//	stream  stream meta (owners and open pieces live inside it)
//
// An owner table is count u64 followed by count object ids (i64): the
// record-ref → object mapping of the facade index, one id per record in
// reference order. Opening numbers the objects by the rank of their ids
// (owner.ByRank).
//
// Page extents sit at the end so OpenIndex can map them lazily: only the
// meta section is read at open time; pages are faulted in on demand by
// the query path's buffer pool.
const (
	containerMagic      = "STIC"
	containerVersion    = 2
	containerVersionOld = 1

	kindPPR    byte = 1
	kindRStar  byte = 2
	kindHR     byte = 3 // reserved, see errHRNotPersisted
	kindHybrid byte = 4 // reserved, see errHybridNotPersisted
	kindStream byte = 5
)

// errHRNotPersisted is what saving an HRIndex and opening an hr container
// report: the overlapping HR-tree is the related-work baseline of
// `stbench -exp overlap`, built and queried in memory.
var errHRNotPersisted = errors.New("stindex: index kind \"hr\" is no longer persisted: the HR-tree is an in-memory baseline (BuildHR); save and serve ppr or rstar")

// errHybridNotPersisted is what opening a hybrid container reports: the
// MV3R-style pairing of a PPR-tree and a 3D R*-tree is no index kind, so
// its two trees are built and saved separately.
var errHybridNotPersisted = errors.New("stindex: index kind \"hybrid\" is no longer persisted: build and save ppr and rstar separately")

// kindName maps a container kind byte to the facade Kind() string.
func kindName(kind byte) string {
	switch kind {
	case kindPPR:
		return "ppr"
	case kindRStar:
		return "rstar"
	case kindHR:
		return "hr"
	case kindHybrid:
		return "hybrid"
	case kindStream:
		return "stream"
	}
	return fmt.Sprintf("unknown(%d)", kind)
}

// kindLayout returns the page layout of a container kind's extent — the
// structural hint the compressed codec exploits (the stream indexer
// persists through a pprtree, so its pages share that layout).
func kindLayout(kind byte) pagefile.Layout {
	if kind == kindRStar {
		return pagefile.LayoutRStar
	}
	return pagefile.LayoutPPR
}

const containerHeaderSize = 4 + 4 + 1 + 1 + 2 + 8

// maxOwners bounds the owner count accepted from untrusted images.
const maxOwners = 1 << 32

// writeOwners writes the owner table.
func writeOwners(sw *section.Writer, owners *owner.Table) {
	sw.U64(uint64(len(owners.Ord)))
	for _, o := range owners.Ord {
		sw.I64(owners.IDs[o])
	}
}

// readOwners reads the owner table at mr's position in meta, numbering
// the objects straight off the meta bytes.
func readOwners(meta []byte, mr *bytes.Reader, sr *section.Reader) (*owner.Table, error) {
	count := sr.Count64("owner count", maxOwners)
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("stindex: reading meta: %w", err)
	}
	// The count is untrusted input: it must fit in the bytes present.
	if count > mr.Len()/8 {
		return nil, fmt.Errorf("stindex: reading owner table: %w", io.ErrUnexpectedEOF)
	}
	ids := meta[len(meta)-mr.Len():][:8*count]
	_, _ = mr.Seek(int64(len(ids)), io.SeekCurrent) // stays within meta: cannot fail
	t := owner.ByRank(count, func(r int) int64 { return int64(binary.LittleEndian.Uint64(ids[8*r:])) })
	return &t, nil
}

// metaSection is a container's encoded meta section: its length, known
// before it is written, and the bytes.
type metaSection interface {
	Len() int
	WriteTo(w io.Writer) (int64, error)
}

// metaBytes is a meta section encoded whole.
type metaBytes []byte

func (m metaBytes) Len() int { return len(m) }

func (m metaBytes) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(m)
	return int64(n), err
}

// containerMeta dispatches on the concrete index type, returning
// the container kind byte, the kind-specific meta section and the page
// store to append as the extent. A stream's section is a
// stream.MetaSnapshot, whose owner rows are read when it is written.
func containerMeta(x Index) (byte, metaSection, pagefile.Store, error) {
	var meta bytes.Buffer
	sw := section.NewWriter(&meta)
	var kind byte
	var store pagefile.Store
	var writeMeta func(io.Writer) (int64, error)
	switch ix := x.(type) {
	case *PPRIndex:
		writeOwners(sw, ix.owners)
		kind, store, writeMeta = kindPPR, ix.tree.Store(), ix.tree.WriteMeta
	case *RStarIndex:
		sw.F64(ix.slab.scale)
		writeOwners(sw, ix.owners)
		kind, store, writeMeta = kindRStar, ix.slab.Store(), ix.slab.WriteMeta
	case *HRIndex:
		return 0, nil, nil, errHRNotPersisted
	case *StreamIndex:
		m, err := ix.ix.SnapshotMeta()
		if err != nil {
			return 0, nil, nil, err
		}
		return kindStream, m, ix.ix.Tree().Store(), nil
	default:
		return 0, nil, nil, fmt.Errorf("stindex: cannot serialise index kind %q (%T)", x.Kind(), x)
	}
	if _, err := sw.Flush(); err != nil {
		return 0, nil, nil, err
	}
	if _, err := writeMeta(&meta); err != nil {
		return 0, nil, nil, err
	}
	return kind, metaBytes(meta.Bytes()), store, nil
}

// decodeContainerMeta parses a kind-specific meta blob into a store-less
// index plus the callback that attaches its page extent.
func decodeContainerMeta(kind byte, meta []byte) (Index, func(pagefile.Store) error, error) {
	mr := bytes.NewReader(meta)
	sr := section.NewReader(mr)
	var x Index
	var attach func(pagefile.Store) error
	switch kind {
	case kindPPR:
		owners, err := readOwners(meta, mr, sr)
		if err != nil {
			return nil, nil, err
		}
		tree, err := pprtree.ReadMeta(mr)
		if err != nil {
			return nil, nil, fmt.Errorf("stindex: ppr meta: %w", err)
		}
		x, attach = newPPRIndex(tree, owners), tree.AttachStore
	case kindRStar:
		scale := sr.F64()
		if sr.Err() == nil && (scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0)) {
			return nil, nil, fmt.Errorf("stindex: implausible stored time scale %g", scale)
		}
		owners, err := readOwners(meta, mr, sr)
		if err != nil {
			return nil, nil, err
		}
		tree, err := rstar.ReadMeta(mr)
		if err != nil {
			return nil, nil, fmt.Errorf("stindex: rstar meta: %w", err)
		}
		x, attach = newRStarIndex(tree, owners, scale), tree.AttachStore
	case kindHR:
		return nil, nil, errHRNotPersisted
	case kindHybrid:
		return nil, nil, errHybridNotPersisted
	case kindStream:
		ix, err := stream.ReadMeta(mr)
		if err != nil {
			return nil, nil, fmt.Errorf("stindex: stream meta: %w", err)
		}
		x, attach = newStreamIndex(ix), ix.AttachStore
	default:
		return nil, nil, fmt.Errorf("stindex: unknown index kind %d", kind)
	}
	if mr.Len() != 0 {
		return nil, nil, fmt.Errorf("stindex: %d bytes of trailing garbage after index meta", mr.Len())
	}
	return x, attach, nil
}

// SaveOptions configures how a container is written.
type SaveOptions struct {
	// Codec is the page-extent codec: CodecDefault or CodecCompressed,
	// the one codec written.
	Codec Codec
}

// EncodeIndex serialises an index — ppr, rstar, or a snapshot of a
// stream index — as a self-describing container to w, with compressed
// pages (an HRIndex is built in memory and is refused).
// DecodeIndex and OpenIndex read it back; the kind and codec are
// autodetected.
func EncodeIndex(w io.Writer, x Index) (int64, error) {
	return EncodeIndexOptions(w, x, SaveOptions{})
}

// EncodeIndexOptions is EncodeIndex with an explicit save configuration.
func EncodeIndexOptions(w io.Writer, x Index, opts SaveOptions) (int64, error) {
	if err := opts.Codec.Check(); err != nil {
		return 0, err
	}
	kind, meta, store, err := containerMeta(x)
	if err != nil {
		return 0, err
	}
	return writeContainer(w, kind, meta, store)
}

// writeContainer writes the container of a kind whose meta section is
// encoded: header, meta, then the page extent read off store.
func writeContainer(w io.Writer, kind byte, meta metaSection, store pagefile.Store) (int64, error) {
	header := make([]byte, containerHeaderSize)
	copy(header, containerMagic)
	binary.LittleEndian.PutUint32(header[4:], containerVersion)
	header[8] = kind
	header[9] = 1
	header[10] = pagefile.CodecIDCompressed
	binary.LittleEndian.PutUint64(header[12:], uint64(meta.Len()))
	m, err := w.Write(header)
	n := int64(m)
	if err != nil {
		return n, err
	}
	mn, err := meta.WriteTo(w)
	n += mn
	if err != nil {
		return n, err
	}
	en, err := pagefile.WriteExtent(w, store, kindLayout(kind))
	return n + en, err
}

// IndexSnapshot is an index's container frozen at one instant and written
// later: the meta section, encoded when the snapshot is taken, and the
// page store as it stood then. Taking one encodes the meta (a stream's
// owner rows excepted: their table is append-only, so only its length is
// taken) and takes the page table of an in-memory store
// (pagefile.File.Snapshot), not its pages; writing one reads nothing the
// index can still change, so the index's owner may go on mutating it
// meanwhile. WriteTo writes the bytes EncodeIndex would have written at
// the instant of the snapshot.
type IndexSnapshot struct {
	kind  byte
	meta  metaSection
	store pagefile.Store
	own   bool // store is a snapshot to close, not the index's own store
}

// SnapshotIndex takes an IndexSnapshot of x. It reads x like EncodeIndex
// does, and of an in-memory store it swaps x's page table, so the caller
// serialises it against x's readers and mutators; the snapshot's WriteTo
// needs no such guard. Close the snapshot once written.
func SnapshotIndex(x Index) (*IndexSnapshot, error) {
	kind, meta, store, err := containerMeta(x)
	if err != nil {
		return nil, err
	}
	s := &IndexSnapshot{kind: kind, meta: meta, store: store}
	if f, ok := store.(*pagefile.File); ok {
		s.store, s.own = f.Snapshot(), true
	}
	return s, nil
}

// WriteTo writes the snapshot's container to w.
func (s *IndexSnapshot) WriteTo(w io.Writer) (int64, error) {
	return writeContainer(w, s.kind, s.meta, s.store)
}

// Close ends the snapshot. Of an in-memory store, it swaps the index's
// page table back (pagefile.File.Snapshot) unless pagefile.Buffer.Release
// put the written container in its place, so it is serialised like
// SnapshotIndex. A read-only store it shares with an opened index stays
// open.
func (s *IndexSnapshot) Close() error {
	if s.own {
		return s.store.Close()
	}
	return nil
}

// SaveIndex writes the index's container image to path. An interrupted write leaves a truncated file, which OpenIndex
// and DecodeIndex reject.
func SaveIndex(path string, x Index) error {
	return SaveIndexOptions(path, x, SaveOptions{})
}

// SaveIndexOptions is SaveIndex with an explicit save configuration.
func SaveIndexOptions(path string, x Index, opts SaveOptions) error {
	if err := opts.Codec.Check(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("stindex: saving index: %w", err)
	}
	bw := bufio.NewWriter(f)
	if _, err := EncodeIndexOptions(bw, x, opts); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("stindex: saving index: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("stindex: saving index: %w", err)
	}
	return nil
}

// parseContainerHeader parses the header of a container of size bytes;
// the meta section it declares must fit in what follows the header.
func parseContainerHeader(header []byte, size int64) (kind byte, extents int, codec byte, metaLen int64, err error) {
	if string(header[:4]) != containerMagic {
		return 0, 0, 0, 0, fmt.Errorf("stindex: bad container magic %q", header[:4])
	}
	switch v := binary.LittleEndian.Uint32(header[4:]); v {
	case containerVersion, containerVersionOld:
		// Version 1 wrote zeros where the codec byte now sits, so both
		// versions share one parse: codec 0 is identity.
	default:
		return 0, 0, 0, 0, fmt.Errorf("stindex: unsupported container version %d", v)
	}
	kind = header[8]
	extents = int(header[9])
	codec = header[10]
	if _, err := pagefile.CodecName(codec); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("stindex: %w", err)
	}
	if header[11] != 0 {
		return 0, 0, 0, 0, fmt.Errorf("stindex: nonzero reserved byte in container header")
	}
	metaLen = int64(binary.LittleEndian.Uint64(header[12:]))
	if metaLen < 0 || metaLen > size-containerHeaderSize {
		return 0, 0, 0, 0, fmt.Errorf("stindex: container meta of %d bytes truncated at container size %d", uint64(metaLen), size)
	}
	wantExtents := 1
	if kind == kindHybrid {
		wantExtents = 2
	}
	if extents != wantExtents {
		return 0, 0, 0, 0, fmt.Errorf("stindex: kind %d container with %d extents, want %d", kind, extents, wantExtents)
	}
	return kind, extents, codec, metaLen, nil
}

// StoreWrapper intercepts each page extent store as a container is
// opened (OpenOptions.Wrap), before it is attached to the index
// structure. It is the testing seam of internal/check: wrapping every
// extent in a fault-injecting store proves the query paths surface
// storage errors cleanly. A nil wrapper (or one returning its argument)
// is the identity.
type StoreWrapper func(pagefile.Store) pagefile.Store

// DecodeIndex reads a container image from r, materialising every page
// in memory (the eager counterpart of OpenIndex). The image is parsed like
// a container file, so its pages come through the extent store a lazy open
// reads (see containerAt for how r is read). The result is writable. The
// kind is autodetected; type-assert the result for kind-specific APIs.
func DecodeIndex(r io.Reader) (Index, error) {
	image, size, err := containerAt(r)
	if err != nil {
		return nil, err
	}
	x, attach, store, err := readContainer(image, size, pagefile.BackendDisk)
	if err != nil {
		return nil, err
	}
	file, err := pagefile.Materialize(store)
	if err != nil {
		return nil, fmt.Errorf("stindex: reading page extent: %w", err)
	}
	if err := attach(file); err != nil {
		return nil, err
	}
	return x, nil
}

// containerAt gives positioned access to the container image r delivers.
// A regular file is read in place from its current offset, as a lazy open
// reads it; any other reader is copied whole into memory (in one
// allocation where r writes itself out, as a bytes.Reader or Buffer
// does). Either way allocation follows the bytes present, never a length
// the header claims.
func containerAt(r io.Reader) (io.ReaderAt, int64, error) {
	if f, ok := r.(*os.File); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			pos, err := f.Seek(0, io.SeekCurrent)
			if err != nil {
				return nil, 0, fmt.Errorf("stindex: reading container: %w", err)
			}
			return io.NewSectionReader(f, pos, fi.Size()-pos), fi.Size() - pos, nil
		}
	}
	var image bytes.Buffer
	if _, err := io.Copy(&image, r); err != nil {
		return nil, 0, fmt.Errorf("stindex: reading container: %w", err)
	}
	return bytes.NewReader(image.Bytes()), int64(image.Len()), nil
}

// readContainer parses the container of size bytes behind r — header,
// meta section and the page extent's directory — into a store-less index,
// the callback that attaches its pages, and the extent's read-only store
// of the given open flavour (see openExtent).
func readContainer(r io.ReaderAt, size int64, backend pagefile.Backend) (Index, func(pagefile.Store) error, pagefile.Store, error) {
	kind, codec, metaLen, err := readHeader(r, size)
	if err != nil {
		return nil, nil, nil, err
	}
	meta := make([]byte, metaLen)
	if _, err := r.ReadAt(meta, containerHeaderSize); err != nil {
		return nil, nil, nil, fmt.Errorf("stindex: reading container meta: %w", err)
	}
	x, attach, err := decodeContainerMeta(kind, meta)
	if err != nil {
		return nil, nil, nil, err
	}
	store, err := openExtent(r, containerHeaderSize+metaLen, size, codec, backend)
	if err != nil {
		return nil, nil, nil, err
	}
	return x, attach, store, nil
}

// openExtent opens the page extent at offset off of the container of
// size bytes behind r. A container file is taken over by the store,
// whose Close closes it (pagefile.OpenFileExtent); on error it stays the
// caller's.
func openExtent(r io.ReaderAt, off, size int64, codec byte, backend pagefile.Backend) (store pagefile.Store, err error) {
	if f, ok := r.(*os.File); ok {
		store, err = pagefile.OpenFileExtent(f, off, size, codec, backend)
	} else {
		store, _, err = pagefile.OpenExtent(r, off, size, codec, backend)
	}
	if err != nil {
		return nil, fmt.Errorf("stindex: opening page extent: %w", err)
	}
	return store, nil
}

// readHeader reads and parses the header of the container of size bytes
// behind r.
func readHeader(r io.ReaderAt, size int64) (kind, codec byte, metaLen int64, err error) {
	header := make([]byte, containerHeaderSize)
	if _, err := r.ReadAt(header, 0); err != nil {
		return 0, 0, 0, fmt.Errorf("stindex: reading container header: %w", err)
	}
	kind, _, codec, metaLen, err = parseContainerHeader(header, size)
	return kind, codec, metaLen, err
}

// OpenIndex opens a saved container lazily: only the header and meta
// section are read here; tree pages stay on disk and are faulted in on
// demand by the buffer pool, so opening a multi-gigabyte index is
// instant. The returned index is read-only and holds the file open —
// Close it when done. Query results and I/O statistics are bit-identical
// to the eagerly loaded and the originally built index.
//
// What is safe on a read-only opened index: Snapshot, Range, ResetBuffer,
// IOStats, Pages, Bytes, Records, Kind, Describe, QueryView (any number
// of concurrent views over the frozen pages), and re-serialising with
// EncodeIndex/SaveIndex. Mutators — (*PPRIndex).Append,
// (*StreamIndex).Observe / Finish / FinishAll — fail with ErrReadOnly
// (test with errors.Is).
func OpenIndex(path string) (Index, error) {
	return OpenIndexOptions(path, OpenOptions{})
}

// OpenOptions configures how a saved container is opened.
type OpenOptions struct {
	// Backend selects the read flavour of the page extents:
	//
	//   - BackendDisk, or empty: the lazily read window — one positioned
	//     read syscall per buffer miss.
	//   - BackendMmap: a read-only memory mapping — zero read syscalls,
	//     falling back to the lazily read window where mmap is
	//     unavailable.
	//
	// The flavour never affects query results or I/O statistics — the
	// stores are observationally identical; only the physical read path
	// differs.
	Backend Backend
	// Wrap intercepts each extent store before it is attached (after the
	// backend flavour is applied) — the fault-injection and shared-cache
	// seam.
	Wrap StoreWrapper
}

// OpenIndexOptions is OpenIndex with an explicit open configuration:
// the page-read flavour (lazy window or mmap) and the store-wrapping
// seam.
func OpenIndexOptions(path string, opts OpenOptions) (Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stindex: opening index: %w", err)
	}
	return openIndexFile(f, opts)
}

// OpenPageExtent opens the page extent of the container at path for
// positioned reads (BackendDisk), without decoding its meta section: the
// base a live index's released pages are read from (see
// pagefile.Buffer.Release). A mapping would bring every page a read
// touches into the process's resident memory, which is what releasing
// the pages saves. Close the store to close the file.
func OpenPageExtent(path string) (pagefile.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stindex: opening page extent: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("stindex: opening page extent: %w", err)
	}
	_, codec, metaLen, err := readHeader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	store, err := openExtent(f, containerHeaderSize+metaLen, fi.Size(), codec, pagefile.BackendDisk)
	if err != nil {
		f.Close()
		return nil, err
	}
	return store, nil
}

// OpenReleased opens the container at path as a writable index whose
// pages stay in the container until they are written: DecodeIndex
// without holding a page. Every page is read once, as DecodeIndex reads
// it, so a container DecodeIndex refuses is refused here too. The
// index's in-memory store is pagefile.Over the container's page extent,
// opened as OpenPageExtent opens it, and that extent is returned too:
// close it once the index reads it no more.
func OpenReleased(path string) (Index, pagefile.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("stindex: opening index: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("stindex: opening index: %w", err)
	}
	x, attach, store, err := readContainer(f, fi.Size(), pagefile.BackendDisk)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := pagefile.Verify(store); err != nil {
		store.Close()
		return nil, nil, fmt.Errorf("stindex: reading page extent: %w", err)
	}
	if err := attach(pagefile.Over(store)); err != nil {
		store.Close()
		return nil, nil, err
	}
	return x, store, nil
}

// openIndexFile opens the container file f as OpenIndexOptions does. It
// takes f over: the index's Close closes it, and so does a failed open.
func openIndexFile(f *os.File, opts OpenOptions) (Index, error) {
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("stindex: opening index: %w", err)
	}
	if err := opts.Backend.Check(); err != nil {
		f.Close()
		return nil, fmt.Errorf("stindex: %w", err)
	}
	x, attach, store, err := readContainer(f, fi.Size(), opts.Backend)
	if err != nil {
		f.Close()
		return nil, err
	}
	wrapped := store
	if opts.Wrap != nil {
		wrapped = opts.Wrap(store)
	}
	if err := attach(wrapped); err != nil {
		store.Close() // the mapping's munmap, then f
		return nil, err
	}
	x.(interface{ set(io.Closer) }).set(store)
	return x, nil
}

// ContainerInfo summarises a saved container without decoding its
// pages: the header fields plus per-extent page accounting. Logical
// bytes are live pages × page size (what queries address); stored bytes
// are the extents' encoded size on disk, which the compressed codec
// makes smaller.
type ContainerInfo struct {
	Kind         string // "ppr", "rstar", "stream" ("hr", "hybrid": a retired container)
	Version      int    // container format version
	Codec        string // "identity" or "compressed"
	Extents      int    // page extents (2 in a retired hybrid container)
	MetaBytes    int64  // kind-specific meta section size
	PageSize     int    // page size of the first extent
	Pages        int    // live pages across all extents
	PagesAlloc   int    // allocated pages including freed slots
	LogicalBytes int64  // live pages × page size
	StoredBytes  int64  // encoded extent bytes on disk
	FileBytes    int64  // total container file size
}

// InspectContainer reads a container's header and extent directories —
// no page decoding, no meta parse — and reports its shape and sizes.
func InspectContainer(path string) (ContainerInfo, error) {
	var info ContainerInfo
	f, err := os.Open(path)
	if err != nil {
		return info, fmt.Errorf("stindex: inspecting container: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return info, fmt.Errorf("stindex: inspecting container: %w", err)
	}
	header := make([]byte, containerHeaderSize)
	if _, err := f.ReadAt(header, 0); err != nil {
		return info, fmt.Errorf("stindex: reading container header: %w", err)
	}
	kind, extents, codec, metaLen, err := parseContainerHeader(header, fi.Size())
	if err != nil {
		return info, err
	}
	info.Kind = kindName(kind)
	info.Version = int(binary.LittleEndian.Uint32(header[4:]))
	info.Codec, _ = pagefile.CodecName(codec) // parseContainerHeader checked it
	info.Extents = extents
	info.MetaBytes = metaLen
	info.FileBytes = fi.Size()
	off := containerHeaderSize + metaLen
	for i := 0; i < extents; i++ {
		s, length, err := pagefile.OpenExtent(f, off, fi.Size(), codec, pagefile.BackendDisk)
		if err != nil {
			return info, fmt.Errorf("stindex: opening page extent %d: %w", i, err)
		}
		if i == 0 {
			info.PageSize = s.PageSize()
		}
		info.Pages += s.NumPages()
		info.PagesAlloc += s.NumAllocated()
		info.LogicalBytes += s.Bytes()
		info.StoredBytes += length // the extent's exact on-disk size, any codec
		s.Close()
		off += length
	}
	return info, nil
}

// CloseIndex releases any file resources the index holds (a no-op for
// built, in-memory indexes). Convenient when holding an Index without
// knowing its concrete type. Idempotent and safe for concurrent callers:
// the first close releases the container file, every later or concurrent
// one returns nil — so deferred cleanup and serving-layer refcount drains
// can race without a double-close reaching the file descriptor.
func CloseIndex(x Index) error {
	if c, ok := x.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
