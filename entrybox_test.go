package stindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// Every node decoder refuses an entry box that is inverted or NaN with
// geom.ErrInvertedBox; the tree searches rely on it to test each entry
// with six (R*) or four (PPR) comparisons and nothing else. These tests
// hold the containers every writer saves to that, and show that a
// container patched to break it fails on open or on the first query that
// reaches the page, in each compressed page mode and in an identity
// fixture.

// identityExtent locates the page images of an identity container: the
// offset of page 0, the page size and the page count.
func identityExtent(t *testing.T, image []byte) (first, pageSize, pages int) {
	t.Helper()
	ext := containerHeaderSize + int(binary.LittleEndian.Uint64(image[12:]))
	if string(image[ext:ext+4]) != "STPF" {
		t.Fatalf("extent magic %q, want STPF", image[ext:ext+4])
	}
	pageSize = int(binary.LittleEndian.Uint32(image[ext+8:]))
	pages = int(binary.LittleEndian.Uint32(image[ext+12:]))
	numFree := int(binary.LittleEndian.Uint32(image[ext+16:]))
	return ext + 20 + 4*numFree, pageSize, pages
}

// entryGeometry gives a node layout's header size and its coordinate
// count (mins first, then maxes).
func entryGeometry(layout pagefile.Layout) (hdr, coords int) {
	if layout == pagefile.LayoutRStar {
		return 8, 6
	}
	return 24, 4
}

// forEachEntryBox calls fn with every entry's coordinates, page by page,
// straight off an identity image.
func forEachEntryBox(t *testing.T, image []byte, layout pagefile.Layout, fn func(page, entry int, c []float64)) {
	t.Helper()
	first, pageSize, pages := identityExtent(t, image)
	hdr, coords := entryGeometry(layout)
	c := make([]float64, coords)
	for p := 0; p < pages; p++ {
		page := image[first+p*pageSize:][:pageSize]
		count := int(binary.LittleEndian.Uint16(page[2:]))
		for e := 0; e < count; e++ {
			off := hdr + e*56
			for i := range c {
				c[i] = math.Float64frombits(binary.LittleEndian.Uint64(page[off+8*i:]))
			}
			fn(p, e, c)
		}
	}
}

// TestSavedContainersHoldOrderedBoxes scans every entry of every page of
// a built PPR-tree, an inserted and a packed R*-tree and a mid-history
// stream snapshot (what an ingest freeze writes) for a box that is not
// Ordered. Freed pages read as zeros and hold no entry.
func TestSavedContainersHoldOrderedBoxes(t *testing.T) {
	fixtures := persistFixtures(t)
	records, _, err := SplitDataset(genObjects(t, 300, 21), SplitConfig{Budget: 450})
	if err != nil {
		t.Fatal(err)
	}
	if fixtures["rstar-packed"], err = BuildRStarPacked(records, RStarOptions{}); err != nil {
		t.Fatal(err)
	}
	six, err := NewStreamIndex(StreamOptions{Lambda: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	objs := genObjects(t, 80, 13)
	for tm := int64(0); tm < 600; tm++ {
		for _, o := range objs {
			lt := o.Lifetime()
			switch {
			case tm == lt.End:
				err = six.Finish(o.ID(), tm)
			case tm >= lt.Start && tm < lt.End:
				r, _ := o.At(tm)
				err = six.Observe(o.ID(), tm, r)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	fixtures["stream"] = six
	for name, x := range fixtures {
		image, err := EncodeIdentity(x)
		if err != nil {
			t.Fatal(err)
		}
		layout := kindLayout(image[8])
		_, coords := entryGeometry(layout)
		entries := 0
		forEachEntryBox(t, image, layout, func(page, entry int, c []float64) {
			entries++
			for d := 0; d < coords/2; d++ {
				if !(c[d] <= c[d+coords/2]) {
					t.Fatalf("%s: page %d entry %d has box %v", name, page, entry, c)
				}
			}
		})
		if entries < 100 {
			t.Fatalf("%s: scanned %d entries", name, entries)
		}
	}
}

// patchLeafEntry patches the coordinates of the first entry of the first
// non-empty leaf page of an identity image and returns that page's id.
func patchLeafEntry(t *testing.T, image []byte, layout pagefile.Layout, mutate func(c []float64)) pagefile.PageID {
	t.Helper()
	first, pageSize, pages := identityExtent(t, image)
	hdr, coords := entryGeometry(layout)
	for p := 0; p < pages; p++ {
		page := image[first+p*pageSize:][:pageSize]
		if page[0]&0x01 == 0 || binary.LittleEndian.Uint16(page[2:]) == 0 {
			continue
		}
		c := make([]float64, coords)
		for i := range c {
			c[i] = math.Float64frombits(binary.LittleEndian.Uint64(page[hdr+8*i:]))
		}
		mutate(c)
		for i := range c {
			binary.LittleEndian.PutUint64(page[hdr+8*i:], math.Float64bits(c[i]))
		}
		return pagefile.PageID(p)
	}
	t.Fatal("no non-empty leaf page")
	return 0
}

// compressedPageMode returns the STPC mode byte page id was written in.
func compressedPageMode(t *testing.T, image []byte, id pagefile.PageID) byte {
	t.Helper()
	ext := image[containerHeaderSize+int(binary.LittleEndian.Uint64(image[12:])):]
	if string(ext[:4]) != "STPC" {
		t.Fatalf("extent magic %q, want STPC", ext[:4])
	}
	numPages := int(binary.LittleEndian.Uint32(ext[12:]))
	numFree := int(binary.LittleEndian.Uint32(ext[16:]))
	lens := ext[24+4*numFree:]
	payload := lens[4*numPages:]
	for i := 0; i < int(id); i++ {
		payload = payload[binary.LittleEndian.Uint32(lens[4*i:]):]
	}
	return payload[0]
}

// disorderedEntries are the two corruptions: the x axis turned inside
// out, and a NaN.
var disorderedEntries = map[string]func(c []float64){
	"inverted": func(c []float64) { c[0] = c[len(c)/2] + 0.5 },
	"nan":      func(c []float64) { c[1] = math.NaN() },
}

// expectInvertedBox opens the image through the eager reader and every
// flavour and demands the open, or a query over everything, fail with
// geom.ErrInvertedBox.
func expectInvertedBox(t *testing.T, label string, image []byte) {
	t.Helper()
	all, span := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Interval{Start: 0, End: 1 << 40}
	check := func(how string, x Index, err error) {
		t.Helper()
		if err == nil {
			defer CloseIndex(x)
			var ids []int64
			ids, err = x.Range(all, span)
			if err == nil {
				t.Errorf("%s %s: the query answered %d ids, want ErrInvertedBox", label, how, len(ids))
				return
			}
		}
		if !errors.Is(err, geom.ErrInvertedBox) {
			t.Errorf("%s %s: %v, want ErrInvertedBox", label, how, err)
		}
	}
	x, err := DecodeIndex(bytes.NewReader(image))
	check("DecodeIndex", x, err)
	path := filepath.Join(t.TempDir(), "patched.sti")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{BackendDisk, BackendMmap} {
		x, err := OpenIndexOptions(path, OpenOptions{Backend: b})
		check(string(b), x, err)
	}
}

// TestDisorderedEntryBoxFailsStop patches one leaf entry of a packed
// R*-tree and of a PPR-tree, inverted and then NaN, and saves each
// compressed twice: once as is, where the page is written in the struct
// mode, and once with a stray byte past the entries, which the struct
// mode cannot carry, so the page is written raw.
func TestDisorderedEntryBoxFailsStop(t *testing.T) {
	records, _, err := SplitDataset(genObjects(t, 300, 21), SplitConfig{Budget: 450})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := BuildRStarPacked(records, RStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ppr, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	const modeRaw, modeStruct = 0x00, 0x01
	for kind, x := range map[string]Index{"rstar-packed": packed, "ppr": ppr} {
		for corruption, mutate := range disorderedEntries {
			for _, mode := range []byte{modeStruct, modeRaw} {
				image, err := EncodeIdentity(x)
				if err != nil {
					t.Fatal(err)
				}
				layout := kindLayout(image[8])
				id := patchLeafEntry(t, image, layout, mutate)
				if mode == modeRaw {
					first, pageSize, _ := identityExtent(t, image)
					image[first+int(id)*pageSize+pageSize-1] = 0x5a
				}
				// The identity image decodes page bytes, not nodes, so it
				// re-saves compressed with the patch in place.
				y, err := DecodeIndex(bytes.NewReader(image))
				if err != nil {
					t.Fatalf("%s %s: decoding the identity image: %v", kind, corruption, err)
				}
				var buf bytes.Buffer
				if _, err := EncodeIndex(&buf, y); err != nil {
					t.Fatal(err)
				}
				compressed := buf.Bytes()
				if got := compressedPageMode(t, compressed, id); got != mode {
					t.Fatalf("%s %s: page %d written in mode %d, want %d", kind, corruption, id, got, mode)
				}
				label := kind + " " + corruption + " " + map[byte]string{modeRaw: "raw", modeStruct: "struct"}[mode]
				expectInvertedBox(t, label, compressed)
			}
		}
	}
}

// TestDisorderedEntryBoxInIdentityFixture patches a leaf entry of the
// identity R*-tree fixture in place.
func TestDisorderedEntryBoxInIdentityFixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "rstar-v2-identity.sti"))
	if err != nil {
		t.Fatal(err)
	}
	for corruption, mutate := range disorderedEntries {
		image := bytes.Clone(fixture)
		patchLeafEntry(t, image, kindLayout(image[8]), mutate)
		expectInvertedBox(t, "rstar-v2-identity "+corruption, image)
	}
}
