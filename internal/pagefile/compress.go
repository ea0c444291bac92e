package pagefile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Compressed page-extent layout (little endian) — the STPC section of a
// saved index, the one extent format written:
//
//	magic    [4]byte  "STPC"
//	version  uint32   1
//	pageSize uint32
//	numPages uint32   (allocated, including freed)
//	numFree  uint32
//	layout   uint8    (Layout hint the pages were encoded under)
//	pad      [3]uint8 0
//	freeList [numFree]uint32
//	lens     [numPages]uint32  (encoded byte length per page; 0 = freed)
//	payload  concatenated encoded pages in id order
//
// Every live page encodes to at least one byte (the mode byte), so a
// zero length marks exactly the freed slots; the reader cross-checks
// lengths against the free list. Page ids stay stable, like STPF.
//
// Each encoded page starts with a mode byte:
//
//	0x00 raw:    uvarint n (≤ pageSize), then the page's first n bytes;
//	             the zero tail is trimmed and restored on decode. The
//	             unconditional fallback — any page content round-trips.
//	0x01 struct: the structural encoding for the extent's layout:
//	             flags byte, uvarint count, (PPR: varint node interval),
//	             then per entry XOR-referenced float64 coordinates with
//	             nibble-packed significant-byte lengths, zigzag-varint
//	             interval deltas (with the open-ended sentinel folded to
//	             one byte) and zigzag-varint reference deltas.
//
// The encoder decode-verifies the struct candidate against the original
// image and keeps the smaller of the two, so compression is a pure size
// optimisation, lossless for arbitrary page content under any layout
// hint.
//
// Modes 0x02 (delta) and 0x03 (dup) named an earlier page as their base.
// Only older encoders wrote them; the reader refuses them with
// ErrRetiredPageMode. Any other mode byte is corrupt.
const (
	cpMagic      = "STPC"
	cpVersion    = 1
	cpHeaderSize = 4 + 4 + 4 + 4 + 4 + 4
)

// Page encoding modes; delta and dup are retired.
const (
	cpModeRaw    byte = 0x00
	cpModeStruct byte = 0x01
	cpModeDelta  byte = 0x02
	cpModeDup    byte = 0x03
)

// ErrRetiredPageMode is returned for a page written in a mode the reader
// no longer decodes. The file opens again once re-saved by a build that
// still reads the mode.
var ErrRetiredPageMode = errors.New("pagefile: retired page encoding mode")

// cpNowSentinel mirrors geom.Now, the "still alive" timestamp of
// open-ended intervals; it appears in most live PPR entries and in open
// node intervals, so it gets the one-byte encoding. Asserted equal to
// geom.Now by a pprtree test.
const cpNowSentinel = int64(math.MaxInt64)

// cpMaxEncodedSlack bounds how much larger than a page an encoded page
// may claim to be: the raw mode costs at most 1 + uvarint(pageSize) +
// pageSize bytes and the encoder always picks the smallest candidate.
const cpMaxEncodedSlack = 8

// layoutSpec describes the node-page byte structure of a Layout.
type layoutSpec struct {
	hdr    int  // header bytes before the entry array
	entry  int  // bytes per entry
	coords int  // float64 coordinates per entry (first half mins, second half maxes)
	times  bool // PPR: node interval in header, insert/delete times per entry
}

// Entry geometry of the two node layouts. specFor is built from these,
// and the per-layout decode kernels use them as compile-time constants.
// Both entries are 56 bytes with the reference in the last eight: four
// coordinates and two times before it (PPR), or six coordinates (R*).
const (
	cpEntrySize = 56
	cpRefOff    = cpEntrySize - 8 // the reference field within an entry
	pprCoords   = 4
	rstarCoords = 6
)

// specFor returns the structural spec of a layout; ok is false for
// LayoutOpaque (and anything unknown), which compresses pages with the
// raw mode only.
func specFor(l Layout) (layoutSpec, bool) {
	switch l {
	case LayoutPPR:
		return layoutSpec{hdr: 24, entry: cpEntrySize, coords: pprCoords, times: true}, true
	case LayoutRStar:
		return layoutSpec{hdr: 8, entry: cpEntrySize, coords: rstarCoords}, true
	}
	return layoutSpec{}, false
}

// cpSpec is specFor gated on the page size: pages too small to hold even
// the node header fall back to the generic modes.
func cpSpec(l Layout, pageSize int) (layoutSpec, bool) {
	sp, ok := specFor(l)
	if !ok || pageSize < sp.hdr+sp.entry {
		return layoutSpec{}, false
	}
	return sp, true
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// cpReader is a bounds-checked cursor over an encoded page; any
// overrun or malformed varint trips err and sticks.
type cpReader struct {
	b   []byte
	off int
	err bool
}

func (r *cpReader) u8() byte {
	if r.err || r.off >= len(r.b) {
		r.err = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *cpReader) uvarint() uint64 {
	if r.err {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = true
		return 0
	}
	r.off += n
	return v
}

func (r *cpReader) take(n int) []byte {
	if r.err || n < 0 || r.off+n > len(r.b) {
		r.err = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *cpReader) done() bool { return !r.err && r.off == len(r.b) }

// entry field accessors over a raw page image.
func cpCoord(page []byte, off, i int) uint64 {
	return binary.LittleEndian.Uint64(page[off+8*i:])
}

// encodeEntry appends the struct encoding of the entry at off to dst.
// prevOff is the previous entry's offset, or -1 for the zero context
// (all-zero coordinate bits, time 0, reference 0).
func encodeEntry(dst []byte, page []byte, off, prevOff int, sp layoutSpec) []byte {
	var x [6]uint64
	half := sp.coords / 2
	for i := 0; i < sp.coords; i++ {
		var ref uint64
		if i < half {
			if prevOff >= 0 {
				ref = cpCoord(page, prevOff, i)
			}
		} else {
			ref = cpCoord(page, off, i-half)
		}
		x[i] = cpCoord(page, off, i) ^ ref
	}
	var lens [6]int
	for i := 0; i < sp.coords; i++ {
		lens[i] = (71 - bits.LeadingZeros64(x[i])) / 8 // 0 for x==0, else significant low bytes
		if x[i] == 0 {
			lens[i] = 0
		}
	}
	for i := 0; i < sp.coords; i += 2 {
		dst = append(dst, byte(lens[i]<<4|lens[i+1]))
	}
	var le [8]byte
	for i := 0; i < sp.coords; i++ {
		binary.LittleEndian.PutUint64(le[:], x[i])
		dst = append(dst, le[:lens[i]]...)
	}
	if sp.times {
		it := int64(binary.LittleEndian.Uint64(page[off+32:]))
		dt := int64(binary.LittleEndian.Uint64(page[off+40:]))
		var prevIt int64
		if prevOff >= 0 {
			prevIt = int64(binary.LittleEndian.Uint64(page[prevOff+32:]))
		}
		dst = binary.AppendUvarint(dst, zigzag(it-prevIt))
		if dt == cpNowSentinel {
			dst = binary.AppendUvarint(dst, 0)
		} else {
			dst = binary.AppendUvarint(dst, 1+zigzag(dt-it))
		}
	}
	ref := binary.LittleEndian.Uint64(page[off+cpRefOff:])
	var prevRef uint64
	if prevOff >= 0 {
		prevRef = binary.LittleEndian.Uint64(page[prevOff+cpRefOff:])
	}
	return binary.AppendUvarint(dst, zigzag(int64(ref-prevRef)))
}

// The longest struct encoding of one entry: the nibble bytes, every
// coordinate at its full eight bytes, every varint at its full ten.
const (
	pprMaxEntryEnc   = pprCoords/2 + 8*pprCoords + 3*binary.MaxVarintLen64
	rstarMaxEntryEnc = rstarCoords/2 + 8*rstarCoords + binary.MaxVarintLen64
)

// decodeEntry reads one struct-encoded entry into dst at off, mirroring
// encodeEntry. The previous entry is read back from dst (already
// decoded); prevOff -1 selects the zero context. Every byte of the entry
// is written.
//
// While the longest possible entry still fits in what is left of the
// encoded page — one test, which covers every load below it — the
// layout's kernel reads each coordinate as a masked word. The last
// entries of a page, where it may not, go through decodeEntryChecked.
func decodeEntry(r *cpReader, dst []byte, off, prevOff int, sp layoutSpec) {
	switch {
	case r.err: // an earlier entry failed; the page is rejected after the last
	case sp.times && len(r.b)-r.off >= pprMaxEntryEnc:
		decodeEntryPPR(r, dst[off:off+cpEntrySize], prevEntry(dst, prevOff))
	case !sp.times && len(r.b)-r.off >= rstarMaxEntryEnc:
		decodeEntryRStar(r, dst[off:off+cpEntrySize], prevEntry(dst, prevOff))
	default:
		decodeEntryChecked(r, dst, off, prevOff, sp)
	}
}

// zeroEntry is the previous entry of a page's first: the zero context.
var zeroEntry [cpEntrySize]byte

func prevEntry(dst []byte, prevOff int) []byte {
	if prevOff < 0 {
		return zeroEntry[:]
	}
	return dst[prevOff : prevOff+cpEntrySize]
}

// lowBytes returns the low n (≤ 8) bytes of the little-endian word at
// b[p:]. The caller has established that the whole word is in bounds.
func lowBytes(b []byte, p, n int) uint64 {
	return binary.LittleEndian.Uint64(b[p:]) &^ (^uint64(0) << (8 * uint(n)))
}

// nibbleOver8 reports whether either nibble of a length byte exceeds 8,
// the longest a coordinate can be.
func nibbleOver8(nb byte) bool { return nb>>4 > 8 || nb&0x0f > 8 }

// uvarintLong is cpReader.uvarint on a bare cursor, for the kernels'
// varints of more than one byte (they test for the one-byte case
// themselves): p < 0 afterwards marks a malformed or overrunning varint.
func uvarintLong(b []byte, p int) (uint64, int) {
	v, n := binary.Uvarint(b[p:])
	if n <= 0 {
		return 0, -1
	}
	return v, p + n
}

// decodeEntryRStar is decodeEntry's kernel for LayoutRStar: e and prev
// are the entry and its predecessor, and at least rstarMaxEntryEnc bytes
// are left in r. Three mins against the predecessor's, three maxes
// against the entry's own mins, the reference delta.
func decodeEntryRStar(r *cpReader, e, prev []byte) {
	b, p := r.b, r.off+rstarCoords/2
	n01, n23, n45 := b[r.off], b[r.off+1], b[r.off+2]
	if nibbleOver8(n01) || nibbleOver8(n23) || nibbleOver8(n45) {
		r.err = true
		return
	}
	e, prev = e[:cpEntrySize], prev[:cpEntrySize] // the constant offsets below need no further check
	n := int(n01 >> 4)
	x0 := lowBytes(b, p, n) ^ binary.LittleEndian.Uint64(prev[0:])
	p += n
	n = int(n01 & 0x0f)
	x1 := lowBytes(b, p, n) ^ binary.LittleEndian.Uint64(prev[8:])
	p += n
	n = int(n23 >> 4)
	x2 := lowBytes(b, p, n) ^ binary.LittleEndian.Uint64(prev[16:])
	p += n
	n = int(n23 & 0x0f)
	x3 := lowBytes(b, p, n) ^ x0
	p += n
	n = int(n45 >> 4)
	x4 := lowBytes(b, p, n) ^ x1
	p += n
	n = int(n45 & 0x0f)
	x5 := lowBytes(b, p, n) ^ x2
	p += n
	d := uint64(b[p])
	if p++; d >= 0x80 {
		if d, p = uvarintLong(b, p-1); p < 0 {
			r.err = true
			return
		}
	}
	binary.LittleEndian.PutUint64(e[0:], x0)
	binary.LittleEndian.PutUint64(e[8:], x1)
	binary.LittleEndian.PutUint64(e[16:], x2)
	binary.LittleEndian.PutUint64(e[24:], x3)
	binary.LittleEndian.PutUint64(e[32:], x4)
	binary.LittleEndian.PutUint64(e[40:], x5)
	binary.LittleEndian.PutUint64(e[cpRefOff:], binary.LittleEndian.Uint64(prev[cpRefOff:])+uint64(unzigzag(d)))
	r.off = p
}

// decodeEntryPPR is decodeEntry's kernel for LayoutPPR, under the same
// contract with pprMaxEntryEnc: two mins, two maxes, the insertion time
// against the predecessor's, the deletion time against the insertion
// time (0 for the open end), the reference delta.
func decodeEntryPPR(r *cpReader, e, prev []byte) {
	const itOff, dtOff = 8 * pprCoords, 8*pprCoords + 8
	b, p := r.b, r.off+pprCoords/2
	n01, n23 := b[r.off], b[r.off+1]
	if nibbleOver8(n01) || nibbleOver8(n23) {
		r.err = true
		return
	}
	e, prev = e[:cpEntrySize], prev[:cpEntrySize]
	n := int(n01 >> 4)
	x0 := lowBytes(b, p, n) ^ binary.LittleEndian.Uint64(prev[0:])
	p += n
	n = int(n01 & 0x0f)
	x1 := lowBytes(b, p, n) ^ binary.LittleEndian.Uint64(prev[8:])
	p += n
	n = int(n23 >> 4)
	x2 := lowBytes(b, p, n) ^ x0
	p += n
	n = int(n23 & 0x0f)
	x3 := lowBytes(b, p, n) ^ x1
	p += n
	var v [3]uint64 // insertion, deletion and reference deltas
	for i := range v {
		v[i] = uint64(b[p])
		if p++; v[i] >= 0x80 {
			if v[i], p = uvarintLong(b, p-1); p < 0 {
				r.err = true
				return
			}
		}
	}
	dIt, dDt, dRef := v[0], v[1], v[2]
	it := int64(binary.LittleEndian.Uint64(prev[itOff:])) + unzigzag(dIt)
	dt := cpNowSentinel
	if dDt != 0 {
		dt = it + unzigzag(dDt-1)
	}
	binary.LittleEndian.PutUint64(e[0:], x0)
	binary.LittleEndian.PutUint64(e[8:], x1)
	binary.LittleEndian.PutUint64(e[16:], x2)
	binary.LittleEndian.PutUint64(e[24:], x3)
	binary.LittleEndian.PutUint64(e[itOff:], uint64(it))
	binary.LittleEndian.PutUint64(e[dtOff:], uint64(dt))
	binary.LittleEndian.PutUint64(e[cpRefOff:], binary.LittleEndian.Uint64(prev[cpRefOff:])+uint64(unzigzag(dRef)))
	r.off = p
}

// decodeEntryChecked is decodeEntry with every field read through the
// bounds-checked cursor and every coordinate assembled a byte at a time:
// the path of a page's last entries, of either layout.
func decodeEntryChecked(r *cpReader, dst []byte, off, prevOff int, sp layoutSpec) {
	var lens [6]int
	for i := 0; i < sp.coords; i += 2 {
		b := r.u8()
		lens[i] = int(b >> 4)
		lens[i+1] = int(b & 0x0f)
	}
	half := sp.coords / 2
	for i := 0; i < sp.coords; i++ {
		if lens[i] > 8 {
			r.err = true
			return
		}
		raw := r.take(lens[i])
		if r.err {
			return
		}
		var x uint64
		for j, bb := range raw {
			x |= uint64(bb) << (8 * j)
		}
		var ref uint64
		if i < half {
			if prevOff >= 0 {
				ref = cpCoord(dst, prevOff, i)
			}
		} else {
			ref = cpCoord(dst, off, i-half)
		}
		binary.LittleEndian.PutUint64(dst[off+8*i:], x^ref)
	}
	if sp.times {
		var prevIt int64
		if prevOff >= 0 {
			prevIt = int64(binary.LittleEndian.Uint64(dst[prevOff+32:]))
		}
		it := prevIt + unzigzag(r.uvarint())
		dt := cpNowSentinel
		if d := r.uvarint(); d != 0 {
			dt = it + unzigzag(d-1)
		}
		binary.LittleEndian.PutUint64(dst[off+32:], uint64(it))
		binary.LittleEndian.PutUint64(dst[off+40:], uint64(dt))
	}
	var prevRef uint64
	if prevOff >= 0 {
		prevRef = binary.LittleEndian.Uint64(dst[prevOff+cpRefOff:])
	}
	binary.LittleEndian.PutUint64(dst[off+cpRefOff:], prevRef+uint64(unzigzag(r.uvarint())))
}

// parsePage checks whether a raw page image matches the layout's node
// structure exactly — padding bytes zero, entry count in bounds, zero
// tail — so the struct encoding reconstructs it bit for bit.
func parsePage(page []byte, sp layoutSpec) (count int, ok bool) {
	if page[1] != 0 || binary.LittleEndian.Uint32(page[4:]) != 0 {
		return 0, false
	}
	count = int(binary.LittleEndian.Uint16(page[2:]))
	end := sp.hdr + count*sp.entry
	if end > len(page) {
		return 0, false
	}
	for _, b := range page[end:] {
		if b != 0 {
			return 0, false
		}
	}
	return count, true
}

// encodeStructHeader appends flags, count and (PPR) the node interval.
func encodeStructHeader(dst []byte, page []byte, count int, sp layoutSpec) []byte {
	dst = append(dst, page[0])
	dst = binary.AppendUvarint(dst, uint64(count))
	if sp.times {
		startT := int64(binary.LittleEndian.Uint64(page[8:]))
		endT := int64(binary.LittleEndian.Uint64(page[16:]))
		dst = binary.AppendUvarint(dst, zigzag(startT))
		if endT == cpNowSentinel {
			dst = binary.AppendUvarint(dst, 0)
		} else {
			dst = binary.AppendUvarint(dst, 1+zigzag(endT-startT))
		}
	}
	return dst
}

// decodeStructHeader mirrors encodeStructHeader into dst, writing all
// sp.hdr bytes — the padding parsePage insists on as zeroes — and
// returning the entry count (bounds-checked against the page size).
func decodeStructHeader(r *cpReader, dst []byte, sp layoutSpec) (count int, ok bool) {
	dst[0] = r.u8()
	c := r.uvarint()
	if r.err || c > uint64((len(dst)-sp.hdr)/sp.entry) {
		r.err = true
		return 0, false
	}
	dst[1] = 0
	binary.LittleEndian.PutUint16(dst[2:], uint16(c))
	binary.LittleEndian.PutUint32(dst[4:], 0)
	if sp.times {
		startT := unzigzag(r.uvarint())
		endT := cpNowSentinel
		if d := r.uvarint(); d != 0 {
			endT = startT + unzigzag(d-1)
		}
		binary.LittleEndian.PutUint64(dst[8:], uint64(startT))
		binary.LittleEndian.PutUint64(dst[16:], uint64(endT))
	}
	return int(c), !r.err
}

// cpEncodeRaw appends the raw-mode encoding: the page with its zero
// tail trimmed.
func cpEncodeRaw(dst []byte, page []byte) []byte {
	n := len(page)
	for n > 0 && page[n-1] == 0 {
		n--
	}
	dst = append(dst, cpModeRaw)
	dst = binary.AppendUvarint(dst, uint64(n))
	return append(dst, page[:n]...)
}

// cpEncodeStruct appends the struct-mode encoding (mode byte included).
func cpEncodeStruct(dst []byte, page []byte, count int, sp layoutSpec) []byte {
	dst = append(dst, cpModeStruct)
	dst = encodeStructHeader(dst, page, count, sp)
	prev := -1
	for i := 0; i < count; i++ {
		off := sp.hdr + i*sp.entry
		dst = encodeEntry(dst, page, off, prev, sp)
		prev = off
	}
	return dst
}

// cpDecodePage decodes one encoded page into dst (exactly pageSize
// bytes, any content — it is fully overwritten).
func cpDecodePage(enc []byte, dst []byte, sp layoutSpec, structOK bool, id uint32) error {
	if len(enc) == 0 {
		return fmt.Errorf("pagefile: empty encoded page %d", id)
	}
	r := &cpReader{b: enc, off: 1}
	switch enc[0] {
	case cpModeRaw:
		n := r.uvarint()
		if r.err || n > uint64(len(dst)) {
			return fmt.Errorf("pagefile: corrupt raw page %d", id)
		}
		data := r.take(int(n))
		if !r.done() {
			return fmt.Errorf("pagefile: corrupt raw page %d", id)
		}
		copy(dst, data)
		clear(dst[n:])
		return nil
	case cpModeStruct:
		if !structOK {
			return fmt.Errorf("pagefile: struct page %d in opaque extent", id)
		}
		count, ok := decodeStructHeader(r, dst, sp)
		if !ok {
			return fmt.Errorf("pagefile: corrupt struct page %d", id)
		}
		prev := -1
		for i := 0; i < count; i++ {
			off := sp.hdr + i*sp.entry
			decodeEntry(r, dst, off, prev, sp)
			prev = off
		}
		if !r.done() {
			return fmt.Errorf("pagefile: corrupt struct page %d", id)
		}
		clear(dst[sp.hdr+count*sp.entry:])
		return nil
	case cpModeDelta, cpModeDup:
		name := "delta"
		if enc[0] == cpModeDup {
			name = "dup"
		}
		return fmt.Errorf("%w: page %d is a %s page (mode %#02x); re-save the file with `stquery -load OLD -save NEW` from a build at f67187a or earlier",
			ErrRetiredPageMode, id, name, enc[0])
	}
	return fmt.Errorf("pagefile: page %d has unknown encoding mode %#x", id, enc[0])
}

// cpEncoder compresses page images one at a time; its buffers are
// reused across pages.
type cpEncoder struct {
	sp                layoutSpec
	structOK          bool
	verify            []byte // decode-verify target
	rawBuf, structBuf []byte
}

func newCpEncoder(layout Layout, pageSize int) *cpEncoder {
	sp, ok := cpSpec(layout, pageSize)
	return &cpEncoder{sp: sp, structOK: ok, verify: make([]byte, pageSize)}
}

// encodePage returns the smaller of the raw encoding and the verified
// struct encoding of the page image. The returned slice is
// encoder-owned scratch, valid until the next call; page is not
// retained.
func (e *cpEncoder) encodePage(id uint32, page []byte) []byte {
	e.rawBuf = cpEncodeRaw(e.rawBuf[:0], page)
	if !e.structOK {
		return e.rawBuf
	}
	count, parsed := parsePage(page, e.sp)
	if !parsed {
		return e.rawBuf
	}
	e.structBuf = cpEncodeStruct(e.structBuf[:0], page, count, e.sp)
	if len(e.structBuf) < len(e.rawBuf) && e.verifies(id, e.structBuf, page) {
		return e.structBuf
	}
	return e.rawBuf
}

// verifies decodes a struct candidate and compares it to the original.
func (e *cpEncoder) verifies(id uint32, cand, page []byte) bool {
	return cpDecodePage(cand, e.verify, e.sp, e.structOK, id) == nil && bytes.Equal(e.verify, page)
}

// payloadBlock is the size of the blocks WriteExtent buffers the
// encoded pages in.
const payloadBlock = 64 << 10

// WriteExtent serialises a store's pages — including freed slots, so
// page ids stay stable — to w as an STPC extent. The layout hint names
// the node format the pages hold; a page that does not match it is
// written raw, so a wrong or LayoutOpaque hint costs compression, never
// correctness. The encoded payload is buffered in memory (lengths
// precede pages in the stream), in blocks of payloadBlock bytes: a
// slice reserved for the worst case holds several times what the pages
// encode to, and one grown by append copies itself as it goes. The raw
// pages are not buffered.
func WriteExtent(w io.Writer, s Store, layout Layout) (int64, error) {
	freeList := s.FreeList()
	numPages := s.NumAllocated()
	enc := newCpEncoder(layout, s.PageSize())
	lens := make([]uint32, numPages)
	var payload [][]byte
	page := make([]byte, s.PageSize())
	for i := 0; i < numPages; i++ {
		if s.Check(PageID(i)) != nil {
			continue
		}
		if err := s.ReadPage(PageID(i), page); err != nil {
			return 0, err
		}
		encPage := enc.encodePage(uint32(i), page)
		lens[i] = uint32(len(encPage))
		for len(encPage) > 0 {
			if len(payload) == 0 || len(payload[len(payload)-1]) == payloadBlock {
				payload = append(payload, make([]byte, 0, payloadBlock))
			}
			last := &payload[len(payload)-1]
			n := min(len(encPage), payloadBlock-len(*last))
			*last = append(*last, encPage[:n]...)
			encPage = encPage[n:]
		}
	}

	bw := bufio.NewWriter(w)
	var n int64
	write := func(data []byte) error {
		m, err := bw.Write(data)
		n += int64(m)
		return err
	}
	header := make([]byte, cpHeaderSize)
	copy(header, cpMagic)
	binary.LittleEndian.PutUint32(header[4:], cpVersion)
	binary.LittleEndian.PutUint32(header[8:], uint32(s.PageSize()))
	binary.LittleEndian.PutUint32(header[12:], uint32(numPages))
	binary.LittleEndian.PutUint32(header[16:], uint32(len(freeList)))
	header[20] = byte(layout)
	if err := write(header); err != nil {
		return n, err
	}
	buf4 := make([]byte, 4)
	for _, id := range freeList {
		binary.LittleEndian.PutUint32(buf4, uint32(id))
		if err := write(buf4); err != nil {
			return n, err
		}
	}
	for _, l := range lens {
		binary.LittleEndian.PutUint32(buf4, l)
		if err := write(buf4); err != nil {
			return n, err
		}
	}
	for _, block := range payload {
		if err := write(block); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// readCpHeader parses and validates the fixed STPC header.
func readCpHeader(header []byte) (pageSize, numPages, numFree int, layout Layout, err error) {
	if string(header[:4]) != cpMagic {
		return 0, 0, 0, 0, fmt.Errorf("pagefile: bad compressed-extent magic %q", header[:4])
	}
	if v := binary.LittleEndian.Uint32(header[4:]); v != cpVersion {
		return 0, 0, 0, 0, fmt.Errorf("pagefile: unsupported compressed-extent version %d", v)
	}
	pageSize = int(binary.LittleEndian.Uint32(header[8:]))
	numPages = int(binary.LittleEndian.Uint32(header[12:]))
	numFree = int(binary.LittleEndian.Uint32(header[16:]))
	layout = Layout(header[20])
	if pageSize <= 0 || pageSize > maxPageSize {
		return 0, 0, 0, 0, fmt.Errorf("pagefile: implausible page size %d", pageSize)
	}
	if numFree > numPages {
		return 0, 0, 0, 0, fmt.Errorf("pagefile: %d free pages exceed %d allocated", numFree, numPages)
	}
	if header[21] != 0 || header[22] != 0 || header[23] != 0 {
		return 0, 0, 0, 0, fmt.Errorf("pagefile: nonzero padding in compressed-extent header")
	}
	if layout > LayoutRStar {
		return 0, 0, 0, 0, fmt.Errorf("pagefile: unknown page layout %d", layout)
	}
	return pageSize, numPages, numFree, layout, nil
}

// openCompressedExtent opens the STPC extent at offset off of r (see
// OpenExtent). Only the header, free list and length table are read
// eagerly (the length table is the page directory; at 4 bytes a page it
// is ~0.1% of the logical size); encoded pages stay at rest until read.
func openCompressedExtent(r io.ReaderAt, off, size int64, flavour Backend) (Store, int64, error) {
	header := make([]byte, cpHeaderSize)
	if err := readFullAt(r, header, off); err != nil {
		return nil, 0, fmt.Errorf("pagefile: reading compressed extent header: %w", err)
	}
	pageSize, numPages, numFree, layout, err := readCpHeader(header)
	if err != nil {
		return nil, 0, err
	}
	tableLen := int64(cpHeaderSize) + 4*int64(numFree) + 4*int64(numPages)
	if off+tableLen > size {
		return nil, 0, fmt.Errorf("pagefile: compressed extent directory truncated at container size %d", size)
	}
	// tableLen is bounded by the container size, so the directory is one
	// read.
	dir := make([]byte, tableLen-cpHeaderSize)
	if err := readFullAt(r, dir, off+cpHeaderSize); err != nil {
		return nil, 0, fmt.Errorf("pagefile: reading compressed extent directory: %w", err)
	}
	e, err := newExtentStore(pageSize, numPages, numFree, dir)
	if err != nil {
		return nil, 0, err
	}
	e.sp, e.structOK = cpSpec(layout, pageSize)
	lens := dir[4*numFree:]
	e.offs = make([]int64, 0, numPages+1)
	e.offs = append(e.offs, 0)
	var payload int64
	for i := 0; i < numPages; i++ {
		l := binary.LittleEndian.Uint32(lens[4*i:])
		if int64(l) > int64(pageSize)+cpMaxEncodedSlack {
			return nil, 0, fmt.Errorf("pagefile: page %d encoded length %d implausible for page size %d", i, l, pageSize)
		}
		if (l == 0) != e.freed[PageID(i)] {
			return nil, 0, fmt.Errorf("pagefile: page %d length %d inconsistent with free list", i, l)
		}
		payload += int64(l)
		e.offs = append(e.offs, payload)
	}
	length := tableLen + payload
	if off+length > size {
		return nil, 0, fmt.Errorf("pagefile: compressed extent of %d payload bytes truncated at container size %d", payload, size)
	}
	return e.open(r, off+tableLen, payload, flavour), length, nil
}
