package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openBytes opens an STPC extent held in memory.
func openBytes(t *testing.T, ext []byte) Store {
	t.Helper()
	s, _, err := OpenExtent(bytes.NewReader(ext), 0, int64(len(ext)), CodecIDCompressed, BackendDisk)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// storedPages splits an STPC extent into the stored bytes of each page,
// nil for a freed slot.
func storedPages(t *testing.T, ext []byte) [][]byte {
	t.Helper()
	numPages := int(binary.LittleEndian.Uint32(ext[12:]))
	numFree := int(binary.LittleEndian.Uint32(ext[16:]))
	lens := ext[cpHeaderSize+4*numFree:]
	payload := lens[4*numPages:]
	pages := make([][]byte, numPages)
	for i := range pages {
		l := int(binary.LittleEndian.Uint32(lens[4*i:]))
		if l > 0 {
			pages[i], payload = payload[:l], payload[l:]
		}
	}
	if len(payload) != 0 {
		t.Fatalf("%d payload bytes past the last page", len(payload))
	}
	return pages
}

// freezeInto writes a snapshot of f as an extent, opens it and releases
// f onto it, as a freeze does; it returns the extent's bytes.
func freezeInto(t *testing.T, f *File, layout Layout) []byte {
	t.Helper()
	s := f.Snapshot()
	var ext bytes.Buffer
	if _, err := WriteExtent(&ext, s, layout); err != nil {
		t.Fatal(err)
	}
	if err := f.Release(openBytes(t, ext.Bytes())); err != nil {
		t.Fatal(err)
	}
	s.Close()
	return ext.Bytes()
}

// TestWriteExtentCopiesReleasedPages releases a file of PPR node pages
// onto a base that stores every page raw: a valid encoding, but not the
// one the encoder picks for a node page. Each page still released is
// written as the base stores it; only the pages held in memory are
// encoded, in struct mode. The base is larger than one copy read, and a
// freed page splits a run.
func TestWriteExtentCopiesReleasedPages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mem := New(DefaultPageSize)
	page := make([]byte, DefaultPageSize)
	var raw [][]byte
	tail := 0 // stored bytes of the run of released pages past 31
	for i := 0; i < 96; i++ {
		writeLayoutPage(page, LayoutPPR, 20+rng.Intn(30), i%2 == 0, rng)
		mustWrite(t, mem, mem.Allocate(), string(page))
		raw = append(raw, cpEncodeRaw(nil, page))
		if i > 31 {
			tail += len(raw[i])
		}
	}
	if tail <= payloadBlock {
		t.Fatalf("the last run of %d bytes fits one copy read", tail)
	}
	ext := testExtent(DefaultPageSize, LayoutPPR, raw)
	f := Over(openBytes(t, ext))
	for _, id := range []PageID{3, 30, 31} {
		writeLayoutPage(page, LayoutPPR, 10, true, rng)
		mustWrite(t, f, id, string(page))
		mustWrite(t, mem, id, string(page))
	}
	writeLayoutPage(page, LayoutPPR, 5, false, rng)
	mustWrite(t, f, f.Allocate(), string(page))
	mustWrite(t, mem, mem.Allocate(), string(page))
	for _, g := range []Store{f, mem} {
		if err := g.Free(20); err != nil {
			t.Fatal(err)
		}
	}

	s := f.Snapshot()
	defer s.Close()
	var out bytes.Buffer
	if _, err := WriteExtent(&out, s, LayoutPPR); err != nil {
		t.Fatal(err)
	}
	stored := storedPages(t, out.Bytes())
	enc := newCpEncoder(LayoutPPR, DefaultPageSize)
	held := s.(*snapshot).pages // the file's table, handed to the snapshot
	for id, got := range stored {
		switch {
		case id == 20:
			if got != nil {
				t.Fatal("freed page 20 was written")
			}
		case held[id] == nil:
			if !bytes.Equal(got, raw[id]) {
				t.Fatalf("released page %d was not copied from the base", id)
			}
		default:
			if want := enc.encodePage(uint32(id), held[id]); got[0] != cpModeStruct || !bytes.Equal(got, want) {
				t.Fatalf("page %d held in memory: stored in mode %#x, not its struct encoding", id, got[0])
			}
		}
	}
	if f.Resident() != 4 {
		t.Fatalf("%d pages held, want 4", f.Resident())
	}
	assertStoresEqual(t, mem, openBytes(t, out.Bytes()), "copied extent")
}

// TestWriteExtentCopyMatchesEncode: a file released at each freeze
// writes the bytes the same file held in memory encodes to, whether the
// base's layout matches the writer's (released pages are copied) or not
// (they are read, decoded and encoded again).
func TestWriteExtentCopyMatchesEncode(t *testing.T) {
	layouts := []Layout{LayoutOpaque, LayoutPPR, LayoutRStar}
	for _, baseLayout := range layouts {
		for _, layout := range layouts {
			rng := rand.New(rand.NewSource(int64(baseLayout)*7 + int64(layout)))
			f := New(DefaultPageSize)
			buildCodecWorkload(t, f, baseLayout, rng)
			freezeInto(t, f, baseLayout)
			page := make([]byte, DefaultPageSize)
			for round := 0; round < 3; round++ {
				for k := 0; k < 5; k++ {
					id := PageID(rng.Intn(f.NumAllocated()))
					if f.Check(id) != nil {
						id = f.Allocate()
					}
					rng.Read(page[:rng.Intn(len(page))])
					mustWrite(t, f, id, string(page))
				}
				if err := f.Free(PageID(10 + round)); err != nil {
					t.Fatal(err)
				}
				freezeInto(t, f, baseLayout)
			}
			inMemory, err := Materialize(f)
			if err != nil {
				t.Fatal(err)
			}
			var want, got bytes.Buffer
			if _, err := WriteExtent(&want, inMemory, layout); err != nil {
				t.Fatal(err)
			}
			if _, err := WriteExtent(&got, f, layout); err != nil {
				t.Fatal(err)
			}
			if f.Resident() != 0 {
				t.Fatalf("%d pages held after a freeze", f.Resident())
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("base layout %d, layout %d: a released file writes other bytes than the file held in memory", baseLayout, layout)
			}
		}
	}
}

// TestWriteExtentRefusesCorruptReleasedPage: a released page whose
// stored bytes a read would refuse fails the write, though it is copied.
func TestWriteExtentRefusesCorruptReleasedPage(t *testing.T) {
	for _, c := range []struct {
		mode byte
		want string
	}{{0x7f, "unknown encoding mode"}, {cpModeDup, ErrRetiredPageMode.Error()}} {
		rng := rand.New(rand.NewSource(5))
		f := New(DefaultPageSize)
		buildCodecWorkload(t, f, LayoutPPR, rng)
		ext := freezeInto(t, f, LayoutPPR)
		stored := storedPages(t, ext)
		stored[7][0] = c.mode // ext's own bytes, which the base reads
		_, err := WriteExtent(&bytes.Buffer{}, f, LayoutPPR)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("mode %#x: WriteExtent = %v, want %q", c.mode, err, c.want)
		}
		if c.mode == cpModeDup && !errors.Is(err, ErrRetiredPageMode) {
			t.Fatalf("mode %#x: %v is not ErrRetiredPageMode", c.mode, err)
		}
	}
}

// TestOpenFileExtentOwnsFile: closing the store closes the file.
func TestOpenFileExtentOwnsFile(t *testing.T) {
	f := New(DefaultPageSize)
	buildCodecWorkload(t, f, LayoutRStar, rand.New(rand.NewSource(9)))
	path := filepath.Join(t.TempDir(), "extent")
	var ext bytes.Buffer
	if _, err := WriteExtent(&ext, f, LayoutRStar); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, ext.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, flavour := range []Backend{BackendDisk, BackendMmap} {
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileExtent(file, 0, int64(ext.Len()), CodecIDCompressed, flavour)
		if err != nil {
			t.Fatal(err)
		}
		assertStoresEqual(t, f, s, string(flavour))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := file.Stat(); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("%s: the file after the store's Close: %v", flavour, err)
		}
	}
}
