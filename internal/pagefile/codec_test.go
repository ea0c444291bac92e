package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeLayoutPage fills buf with a valid node page for the layout:
// plausible coordinates, monotone refs, PPR intervals with the
// open-ended sentinel mixed in.
func writeLayoutPage(buf []byte, layout Layout, count int, leaf bool, rng *rand.Rand) {
	sp, ok := specFor(layout)
	if !ok {
		panic("writeLayoutPage: opaque layout")
	}
	for i := range buf {
		buf[i] = 0
	}
	if leaf {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint16(buf[2:], uint16(count))
	if sp.times {
		binary.LittleEndian.PutUint64(buf[8:], uint64(rng.Int63n(1000)))
		endT := uint64(cpNowSentinel)
		if rng.Intn(2) == 0 {
			endT = uint64(rng.Int63n(1000) + 1000)
		}
		binary.LittleEndian.PutUint64(buf[16:], endT)
	}
	ref := uint64(rng.Intn(100))
	for i := 0; i < count; i++ {
		off := sp.hdr + i*sp.entry
		x, y := rng.Float64(), rng.Float64()
		half := sp.coords / 2
		for d := 0; d < half; d++ {
			v := x
			if d%2 == 1 {
				v = y
			}
			binary.LittleEndian.PutUint64(buf[off+8*d:], math.Float64bits(v))
			binary.LittleEndian.PutUint64(buf[off+8*(half+d):], math.Float64bits(v+rng.Float64()*0.01))
		}
		if sp.times {
			it := rng.Int63n(1000)
			dt := cpNowSentinel
			if rng.Intn(3) == 0 {
				dt = it + rng.Int63n(100)
			}
			binary.LittleEndian.PutUint64(buf[off+32:], uint64(it))
			binary.LittleEndian.PutUint64(buf[off+40:], uint64(dt))
		}
		ref += uint64(rng.Intn(5) + 1)
		binary.LittleEndian.PutUint64(buf[off+cpRefOff:], ref)
	}
}

// mutateEntries overwrites a few entries of a valid node page in place.
func mutateEntries(buf []byte, layout Layout, howMany int, rng *rand.Rand) {
	sp, _ := specFor(layout)
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	if max := (len(buf) - sp.hdr) / sp.entry; count > max {
		count = max // a garbage page's count field is unbounded
	}
	for k := 0; k < howMany && count > 0; k++ {
		i := rng.Intn(count)
		off := sp.hdr + i*sp.entry
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(rng.Float64()))
	}
}

// buildCodecWorkload fills a store with the page population the
// compressed codec must round-trip: structured pages, near-copies (the
// version-split pattern), exact duplicates, raw garbage, zero pages and
// freed slots.
func buildCodecWorkload(t *testing.T, s Store, layout Layout, rng *rand.Rand) {
	t.Helper()
	sp, structured := specFor(layout)
	maxCount := 0
	if structured {
		maxCount = (s.PageSize() - sp.hdr) / sp.entry
	}
	page := make([]byte, s.PageSize())
	prev := make([]byte, s.PageSize())
	havePrev := false
	var ids []PageID
	for i := 0; i < 60; i++ {
		id := s.Allocate()
		ids = append(ids, id)
		switch {
		case structured && havePrev && i%4 == 1: // near-copy
			copy(page, prev)
			mutateEntries(page, layout, 2, rng)
		case havePrev && i%9 == 2: // exact duplicate
			copy(page, prev)
		case i%13 == 3: // raw garbage: fallback target
			rng.Read(page)
		case i%17 == 4: // zero page
			for j := range page {
				page[j] = 0
			}
		default:
			if structured {
				writeLayoutPage(page, layout, 1+rng.Intn(maxCount), rng.Intn(2) == 0, rng)
			} else {
				rng.Read(page[:rng.Intn(len(page))])
			}
		}
		if err := s.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
		copy(prev, page)
		havePrev = true
	}
	for _, k := range []int{5, 23, 41} {
		if err := s.Free(ids[k]); err != nil {
			t.Fatal(err)
		}
	}
}

// assertStoresEqual compares two stores observationally: shape, free
// list, and every live page image.
func assertStoresEqual(t *testing.T, want, got Store, label string) {
	t.Helper()
	if got.PageSize() != want.PageSize() || got.NumPages() != want.NumPages() || got.NumAllocated() != want.NumAllocated() {
		t.Fatalf("%s: shape differs: %d/%d pages vs %d/%d", label,
			got.NumPages(), got.NumAllocated(), want.NumPages(), want.NumAllocated())
	}
	wf, gf := want.FreeList(), got.FreeList()
	if len(wf) != len(gf) {
		t.Fatalf("%s: free list length %d vs %d", label, len(gf), len(wf))
	}
	for i := range wf {
		if wf[i] != gf[i] {
			t.Fatalf("%s: free list[%d] = %d vs %d", label, i, gf[i], wf[i])
		}
	}
	a := make([]byte, want.PageSize())
	b := make([]byte, want.PageSize())
	for i := 0; i < want.NumAllocated(); i++ {
		id := PageID(i)
		if (want.Check(id) == nil) != (got.Check(id) == nil) {
			t.Fatalf("%s: liveness of page %d differs", label, id)
		}
		if want.Check(id) != nil {
			continue
		}
		if err := want.ReadPage(id, a); err != nil {
			t.Fatal(err)
		}
		if err := got.ReadPage(id, b); err != nil {
			t.Fatalf("%s: reading page %d: %v", label, id, err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: page %d differs", label, id)
		}
	}
}

func TestCompressedExtentRoundTrip(t *testing.T) {
	for _, layout := range []Layout{LayoutOpaque, LayoutPPR, LayoutRStar} {
		rng := rand.New(rand.NewSource(int64(layout) + 7))
		f := New(DefaultPageSize)
		buildCodecWorkload(t, f, layout, rng)

		var buf bytes.Buffer
		if _, err := WriteExtent(&buf, f, layout); err != nil {
			t.Fatal(err)
		}
		encoded := append([]byte(nil), buf.Bytes()...)

		mem, err := readExtent(stpc, encoded)
		if err != nil {
			t.Fatal(err)
		}
		assertStoresEqual(t, f, mem, "mem")

		// Re-encode must be byte-identical: the codec is a pure function
		// of the page population.
		var buf2 bytes.Buffer
		if _, err := WriteExtent(&buf2, mem, layout); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encoded, buf2.Bytes()) {
			t.Fatalf("layout %d: re-encode differs: %d vs %d bytes", layout, buf2.Len(), len(encoded))
		}
		// TestOpenExtentBackendFlavours opens these same extents through
		// every open flavour.
	}
}

// TestCompressedShrinksStructuredPages pins what the struct mode buys on
// its own, with no cross-page mode behind it: full nodes at the paper's
// 50-entry fan-out whose entries are unrelated to their neighbours — the
// worst case for the within-node XOR deltas — still shrink 2x (PPR) and
// 1.8x (R*, six coordinates an entry) against the identity extent. Built
// trees do better (BENCH_persist.json: 2.6x and 2.2x).
func TestCompressedShrinksStructuredPages(t *testing.T) {
	for _, tc := range []struct {
		layout Layout
		tenths int // minimum identity/compressed ratio, in tenths
	}{{LayoutPPR, 20}, {LayoutRStar, 18}} {
		rng := rand.New(rand.NewSource(42))
		f := New(DefaultPageSize)
		page := make([]byte, DefaultPageSize)
		for i := 0; i < 100; i++ {
			writeLayoutPage(page, tc.layout, 50, i%4 != 0, rng)
			if err := f.WritePage(f.Allocate(), page); err != nil {
				t.Fatal(err)
			}
		}
		var compressed, identity bytes.Buffer
		if _, err := WriteExtent(&compressed, f, tc.layout); err != nil {
			t.Fatal(err)
		}
		if _, err := writeSTPF(&identity, f, tc.layout); err != nil {
			t.Fatal(err)
		}
		if compressed.Len()*tc.tenths > identity.Len()*10 {
			t.Fatalf("layout %d: compressed %d bytes, identity %d: expected ≥ %.1fx shrink on node pages",
				tc.layout, compressed.Len(), identity.Len(), float64(tc.tenths)/10)
		}
		got, err := readExtent(stpc, compressed.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		assertStoresEqual(t, f, got, "shrunk")
	}
}

// TestCompressedStoredBytes: the stored size of a compressed extent is
// the length OpenExtent returns, while the opened store's Bytes stays the
// logical footprint.
func TestCompressedStoredBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := New(DefaultPageSize)
	buildCodecWorkload(t, f, LayoutPPR, rng)
	file, off, enc := writeTestExtent(t, stpc, LayoutPPR, f)
	s, length, err := stpc.open(file, off, sizeOf(t, file), BackendDisk)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if length != int64(len(enc)) {
		t.Fatalf("extent length %d, want %d", length, len(enc))
	}
	if s.Bytes() != int64(s.NumPages())*int64(s.PageSize()) {
		t.Fatalf("Bytes %d is not the logical footprint", s.Bytes())
	}
}

// TestCodecRegistry checks the container codec byte: each readable
// format has its name, each directory parse refuses the other format's
// extent, and an unknown byte is refused.
func TestCodecRegistry(t *testing.T) {
	f := buildTestFile(t, 64, 3, 1)
	for _, c := range testCodecs {
		if name, err := CodecName(c.id); err != nil || name != c.name {
			t.Fatalf("CodecName(%d) = %q, %v, want %q", c.id, name, err, c.name)
		}
		var buf bytes.Buffer
		if _, err := c.write(&buf, f, LayoutOpaque); err != nil {
			t.Fatal(err)
		}
		other := CodecIDIdentity + CodecIDCompressed - c.id
		if _, _, err := OpenExtent(bytes.NewReader(buf.Bytes()), 0, int64(buf.Len()), other, BackendDisk); err == nil {
			t.Fatalf("%s extent opened as codec %d", c.name, other)
		}
	}
	if _, err := CodecName(250); err == nil {
		t.Fatal("CodecName accepted an unknown id")
	}
	if _, _, err := OpenExtent(bytes.NewReader(make([]byte, 64)), 0, 64, 250, BackendDisk); err == nil {
		t.Fatal("OpenExtent accepted an unknown codec id")
	}
}

func TestCompressedRejectsCorruptExtent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := New(256)
	buildCodecWorkload(t, f, LayoutPPR, rng)
	var buf bytes.Buffer
	if _, err := WriteExtent(&buf, f, LayoutPPR); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()
	// Truncations anywhere must error, never panic or over-allocate.
	for _, cut := range []int{0, 3, cpHeaderSize - 1, cpHeaderSize + 2, len(encoded) / 2, len(encoded) - 1} {
		if _, err := readExtent(stpc, encoded[:cut]); err == nil {
			t.Fatalf("accepted extent truncated to %d bytes", cut)
		}
	}
	// Bit flips are either detected or decode to *something* without
	// crashing; flips in the directory must be detected.
	for pos := 0; pos < cpHeaderSize; pos++ {
		mut := append([]byte(nil), encoded...)
		mut[pos] ^= 0xff
		_, _ = readExtent(stpc, mut)
	}
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), encoded...)
		mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		_, _ = readExtent(stpc, mut)
	}
}

// testEncodeDelta hand-builds a page in the retired delta mode against
// base: entries found in the base image become copy ops, the rest
// literals — the bytes an older encoder wrote, which the reader refuses.
func testEncodeDelta(page []byte, base uint32, baseImg []byte, sp layoutSpec) []byte {
	count, _ := parsePage(page, sp)
	baseCount, _ := parsePage(baseImg, sp)
	enc := binary.AppendUvarint([]byte{cpModeDelta}, uint64(base))
	enc = encodeStructHeader(enc, page, count, sp)
	prev := -1
	for i := 0; i < count; i++ {
		off := sp.hdr + i*sp.entry
		op := 0
		for k := 0; k < baseCount; k++ {
			bOff := sp.hdr + k*sp.entry
			if bytes.Equal(page[off:off+sp.entry], baseImg[bOff:bOff+sp.entry]) {
				op = k + 1
				break
			}
		}
		enc = binary.AppendUvarint(enc, uint64(op))
		if op == 0 {
			enc = encodeEntry(enc, page, off, prev, sp)
		}
		prev = off
	}
	return enc
}

// testExtent assembles an STPC extent with no freed pages from already
// encoded pages.
func testExtent(pageSize int, layout Layout, encs [][]byte) []byte {
	out := make([]byte, cpHeaderSize)
	copy(out, cpMagic)
	binary.LittleEndian.PutUint32(out[4:], cpVersion)
	binary.LittleEndian.PutUint32(out[8:], uint32(pageSize))
	binary.LittleEndian.PutUint32(out[12:], uint32(len(encs)))
	out[20] = byte(layout)
	for _, e := range encs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e)))
	}
	for _, e := range encs {
		out = append(out, e...)
	}
	return out
}

// TestCompressedRefusesRetiredModes reads a hand-built extent of a
// struct page and a delta and a dup page on it: the lazy flavours open it
// and read the struct page, and fail each retired page with
// ErrRetiredPageMode; the materialising open fails with it.
func TestCompressedRefusesRetiredModes(t *testing.T) {
	const pageSize = 1024
	for _, layout := range []Layout{LayoutPPR, LayoutRStar} {
		sp, _ := cpSpec(layout, pageSize)
		rng := rand.New(rand.NewSource(int64(layout)))
		basePage := make([]byte, pageSize)
		writeLayoutPage(basePage, layout, 12, true, rng)
		nearCopy := append([]byte(nil), basePage...)
		mutateEntries(nearCopy, layout, 2, rng)

		baseEnc := append([]byte(nil), newCpEncoder(layout, pageSize).encodePage(0, basePage)...)
		if baseEnc[0] != cpModeStruct {
			t.Fatalf("layout %d: base page encoded in mode %#x, want struct", layout, baseEnc[0])
		}
		extent := testExtent(pageSize, layout, [][]byte{baseEnc, testEncodeDelta(nearCopy, 0, basePage, sp), {cpModeDup, 0}})
		path := filepath.Join(t.TempDir(), "extent")
		if err := os.WriteFile(path, extent, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		for _, flavour := range []Backend{BackendDisk, BackendMmap} {
			s, _, err := stpc.open(file, 0, int64(len(extent)), flavour)
			if err != nil {
				t.Fatalf("layout %d, flavour %s: lazy open reads no page, got %v", layout, flavour, err)
			}
			if _, err := Materialize(s); !errors.Is(err, ErrRetiredPageMode) {
				t.Fatalf("layout %d, flavour %s: the eager load says %v, want ErrRetiredPageMode", layout, flavour, err)
			}
			got := make([]byte, pageSize)
			if err := s.ReadPage(0, got); err != nil || !bytes.Equal(got, basePage) {
				t.Fatalf("layout %d, flavour %s: struct page: %v", layout, flavour, err)
			}
			for id, mode := range map[PageID]string{1: "delta", 2: "dup"} {
				err := s.ReadPage(id, got)
				if !errors.Is(err, ErrRetiredPageMode) {
					t.Fatalf("layout %d, flavour %s: page %d says %v, want ErrRetiredPageMode", layout, flavour, id, err)
				}
				// The error names the page and its mode, and the remedy.
				for _, part := range []string{fmt.Sprintf("page %d is a %s page", id, mode), "stquery -load OLD -save NEW"} {
					if !strings.Contains(err.Error(), part) {
						t.Fatalf("layout %d, flavour %s: error %q does not say %q", layout, flavour, err, part)
					}
				}
			}
			s.Close()
		}
	}
}

// refDecodeEntry is decodeEntry as it stood before the word-at-a-time
// kernel: every field through the checked cursor, each coordinate
// assembled a byte at a time. It is the reference FuzzDecodePage holds the
// decoder to, so it shares nothing with it but the cursor.
func refDecodeEntry(r *cpReader, dst []byte, off, prevOff int, sp layoutSpec) {
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
				ref = binary.LittleEndian.Uint64(dst[prevOff+8*i:])
			}
		} else {
			ref = binary.LittleEndian.Uint64(dst[off+8*(i-half):])
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

// refDecodeStruct is the reference decoder of the struct mode: the whole
// frame cleared first, then the header and refDecodeEntry per entry. enc
// must start with the struct mode byte.
func refDecodeStruct(enc, dst []byte, sp layoutSpec, structOK bool, id uint32) error {
	if !structOK {
		return fmt.Errorf("struct page %d in opaque extent", id)
	}
	r := &cpReader{b: enc, off: 1}
	for i := range dst {
		dst[i] = 0
	}
	dst[0] = r.u8()
	c := r.uvarint()
	if r.err || c > uint64((len(dst)-sp.hdr)/sp.entry) {
		return fmt.Errorf("corrupt header of page %d", id)
	}
	binary.LittleEndian.PutUint16(dst[2:], uint16(c))
	if sp.times {
		startT := unzigzag(r.uvarint())
		endT := cpNowSentinel
		if d := r.uvarint(); d != 0 {
			endT = startT + unzigzag(d-1)
		}
		binary.LittleEndian.PutUint64(dst[8:], uint64(startT))
		binary.LittleEndian.PutUint64(dst[16:], uint64(endT))
	}
	prev := -1
	for i := 0; i < int(c); i++ {
		off := sp.hdr + i*sp.entry
		refDecodeEntry(r, dst, off, prev, sp)
		prev = off
	}
	if !r.done() {
		return fmt.Errorf("corrupt page %d", id)
	}
	return nil
}

func staleFrame() []byte { return bytes.Repeat([]byte{0xAA}, DefaultPageSize) }

// TestStructRoundTripStaleFrame decodes struct pages into a frame that
// still holds another page's bytes — what a buffer pool hands the decoder
// — and expects the source image back, tail and header padding included.
func TestStructRoundTripStaleFrame(t *testing.T) {
	for _, layout := range []Layout{LayoutPPR, LayoutRStar} {
		sp, _ := cpSpec(layout, DefaultPageSize)
		rng := rand.New(rand.NewSource(int64(layout)))
		for _, count := range []int{0, 1, (DefaultPageSize - sp.hdr) / sp.entry} {
			page := make([]byte, DefaultPageSize)
			writeLayoutPage(page, layout, count, count%2 == 1, rng)
			enc := cpEncodeStruct(nil, page, count, sp)
			got := staleFrame()
			if err := cpDecodePage(enc, got, sp, true, 0); err != nil {
				t.Fatalf("layout %d, %d entries: %v", layout, count, err)
			}
			if !bytes.Equal(got, page) {
				t.Fatalf("layout %d, %d entries: decode into a stale frame differs from the source page", layout, count)
			}
		}
	}
}

// FuzzDecodePage drives the single-page decompressor with arbitrary
// bytes under every layout. The decoder must never panic and never
// allocate beyond its fixed page-size buffers, no matter what the
// encoded lengths claim; it must refuse every page in a retired mode
// with ErrRetiredPageMode; and on struct pages it must agree with
// refDecodeStruct — on accept or reject, and on every byte of an
// accepted page — over a frame that starts out dirty.
func FuzzDecodePage(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	basePage := make([]byte, DefaultPageSize)
	writeLayoutPage(basePage, LayoutPPR, 10, false, rand.New(rand.NewSource(1)))
	for _, layout := range []Layout{LayoutPPR, LayoutRStar} {
		page := make([]byte, DefaultPageSize)
		writeLayoutPage(page, layout, 30, true, rng)
		enc := newCpEncoder(layout, DefaultPageSize)
		f.Add(byte(layout), enc.encodePage(0, page))
		f.Add(byte(layout), cpEncodeRaw(nil, page))

		// Where the word loads must give way to the checked tail: every
		// truncation of a short page (among them the one whose last
		// coordinate ends on the buffer's last byte), a trailing byte, and
		// the two ends of the illegal nibble range.
		sp, _ := specFor(layout)
		writeLayoutPage(page, layout, 4, true, rng)
		short := cpEncodeStruct(nil, page, 4, sp)
		for n := range short {
			f.Add(byte(layout), short[:n])
		}
		f.Add(byte(layout), append(append([]byte(nil), short...), 0))
		firstNibbles := len(encodeStructHeader([]byte{cpModeStruct}, page, 4, sp))
		for _, nibbles := range []byte{0x91, 0x1f} {
			bad := append([]byte(nil), short...)
			bad[firstNibbles] = nibbles
			f.Add(byte(layout), bad)
		}
		// One entry whose coordinates are all eight bytes long, whole and
		// cut just before its reference varint: the last coordinate's
		// word is the last eight bytes of the buffer.
		writeLayoutPage(page, layout, 1, true, rng)
		for c := 0; c < sp.coords; c++ {
			binary.LittleEndian.PutUint64(page[sp.hdr+8*c:], math.Float64bits(-1.5-float64(c)))
		}
		binary.LittleEndian.PutUint64(page[sp.hdr+cpRefOff:], 1)
		one := cpEncodeStruct(nil, page, 1, sp)
		f.Add(byte(layout), one)
		f.Add(byte(layout), one[:len(one)-1])
	}
	// The retired modes: a dup, a truncated delta, and a delta of a
	// near-copy of a base page.
	f.Add(byte(LayoutOpaque), []byte{cpModeDup, 2})
	f.Add(byte(LayoutPPR), []byte{cpModeDelta, 1, 0, 3})
	nearCopy := append([]byte(nil), basePage...)
	mutateEntries(nearCopy, LayoutPPR, 2, rng)
	ppr, _ := specFor(LayoutPPR)
	f.Add(byte(LayoutPPR), testEncodeDelta(nearCopy, 2, basePage, ppr))
	// A raw page under the opaque layout, whose extents hold no other mode.
	f.Add(byte(LayoutOpaque), cpEncodeRaw(nil, basePage))
	f.Fuzz(func(t *testing.T, layoutByte byte, data []byte) {
		// Both structured layouts on every input; the byte adds the opaque
		// and unknown ones.
		for _, layout := range []Layout{LayoutPPR, LayoutRStar, Layout(layoutByte % 4)} {
			sp, ok := cpSpec(layout, DefaultPageSize)
			got := staleFrame()
			err := cpDecodePage(data, got, sp, ok, 7)
			if len(data) == 0 {
				continue
			}
			switch data[0] {
			case cpModeDelta, cpModeDup:
				if !errors.Is(err, ErrRetiredPageMode) {
					t.Fatalf("layout %d: retired mode %#x says %v, want ErrRetiredPageMode", layout, data[0], err)
				}
			case cpModeStruct:
				want := staleFrame()
				refErr := refDecodeStruct(data, want, sp, ok, 7)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("layout %d: decoder says %v, reference says %v", layout, err, refErr)
				}
				if err == nil && !bytes.Equal(got, want) {
					t.Fatalf("layout %d: accepted page differs from the reference's", layout)
				}
			}
		}
	})
}
