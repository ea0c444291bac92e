package pagefile

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// countingBase is a release base that counts its page reads and fails
// them once closed.
type countingBase struct {
	Store
	reads  int
	closed bool
}

func (c *countingBase) ReadPage(id PageID, dst []byte) error {
	if c.closed {
		return errors.New("read of a closed base")
	}
	c.reads++
	return c.Store.ReadPage(id, dst)
}

func (c *countingBase) Close() error {
	c.closed = true
	return nil
}

// freezeOnto snapshots f, runs between while the snapshot is open (the
// writes a freeze lets through), writes the snapshot's extent, opens it
// and releases f onto it: a freeze as the ingest path runs one.
func freezeOnto(t *testing.T, f *File, between func()) *countingBase {
	t.Helper()
	s := f.Snapshot()
	if between != nil {
		between()
	}
	var ext bytes.Buffer
	if _, err := WriteExtent(&ext, s, LayoutOpaque); err != nil {
		t.Fatal(err)
	}
	store, _, err := OpenExtent(bytes.NewReader(ext.Bytes()), 0, int64(ext.Len()), CodecIDCompressed, BackendDisk)
	if err != nil {
		t.Fatal(err)
	}
	base := &countingBase{Store: store}
	if err := f.Release(base); err != nil {
		t.Fatal(err)
	}
	s.Close()
	return base
}

// releaseFixture is a file of six written pages, page 4 freed.
func releaseFixture(t *testing.T) *File {
	t.Helper()
	f := New(64)
	for i := 0; i < 6; i++ {
		if err := f.write(f.Allocate(), []byte{byte(i + 1), 0xaa}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Free(4); err != nil {
		t.Fatal(err)
	}
	return f
}

func mustWrite(t *testing.T, f *File, id PageID, data string) {
	t.Helper()
	if err := f.write(id, []byte(data)); err != nil {
		t.Fatal(err)
	}
}

func wantImage(t *testing.T, f Store, id PageID, prefix []byte) {
	t.Helper()
	got := make([]byte, f.PageSize())
	if err := f.ReadPage(id, got); err != nil {
		t.Fatalf("page %d: %v", id, err)
	}
	want := make([]byte, f.PageSize())
	copy(want, prefix)
	if !bytes.Equal(got, want) {
		t.Fatalf("page %d reads %x, want %x", id, got[:8], want[:8])
	}
}

// TestReleaseReadsThroughBase: a released page reads the base's image; a
// read with no destination only checks the page and reads nothing; the
// tables stay the file's own.
func TestReleaseReadsThroughBase(t *testing.T) {
	f := releaseFixture(t)
	base := freezeOnto(t, f, nil)
	if n := f.Resident(); n != 0 {
		t.Fatalf("%d images resident after releasing an unchanged file", n)
	}
	for _, id := range []PageID{0, 1, 2, 3, 5} {
		wantImage(t, f, id, []byte{byte(id + 1), 0xaa})
	}
	if base.reads != 5 {
		t.Fatalf("base served %d reads, want 5", base.reads)
	}
	if err := f.ReadPage(2, nil); err != nil || base.reads != 5 {
		t.Fatalf("ReadPage(2, nil) = %v after %d base reads; want a check only", err, base.reads)
	}
	if err := f.ReadPage(4, nil); !errors.Is(err, ErrBadPage) {
		t.Fatalf("ReadPage(freed) = %v", err)
	}
	if f.NumPages() != 5 || f.NumAllocated() != 6 || f.Version(1) != 1 || len(f.FreeList()) != 1 {
		t.Fatalf("tables moved: pages %d allocated %d version %d free %v", f.NumPages(), f.NumAllocated(), f.Version(1), f.FreeList())
	}
}

// TestReleaseWriteDoesNotAliasBase: a write to a released page gives it
// a buffer of its own; the base still holds the old image.
func TestReleaseWriteDoesNotAliasBase(t *testing.T) {
	f := releaseFixture(t)
	base := freezeOnto(t, f, nil)
	mustWrite(t, f, 3, "new")
	if f.pages[3] == nil || f.Resident() != 1 {
		t.Fatalf("written page has no image (%d resident)", f.Resident())
	}
	reads := base.reads
	wantImage(t, f, 3, []byte("new"))
	if base.reads != reads {
		t.Fatal("a written page was read from the base")
	}
	wantImage(t, base.Store, 3, []byte{4, 0xaa})
	mustWrite(t, f, 3, "newer")
	wantImage(t, base.Store, 3, []byte{4, 0xaa})
}

// TestReleaseSnapshotOfPartlyReleasedFile: a snapshot of a file holding
// some images reads the others from the base, and encodes as the file
// does.
func TestReleaseSnapshotOfPartlyReleasedFile(t *testing.T) {
	f := releaseFixture(t)
	base := freezeOnto(t, f, nil)
	mustWrite(t, f, 1, "held")
	var want bytes.Buffer
	if _, err := WriteExtent(&want, f, LayoutOpaque); err != nil {
		t.Fatal(err)
	}
	s := f.Snapshot()
	defer s.Close()
	mustWrite(t, f, 0, "after")
	mustWrite(t, f, 1, "after")
	var got bytes.Buffer
	if _, err := WriteExtent(&got, s, LayoutOpaque); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the snapshot's extent differs from the file's at the snapshot")
	}
	if base.reads == 0 {
		t.Fatal("the snapshot read no released page from the base")
	}
	wantImage(t, s, 0, []byte{1, 0xaa})
	wantImage(t, s, 1, []byte("held"))
}

// TestReleaseSkipsFreedAndChanged: pages written, reused, allocated or
// freed between the snapshot and the release keep their images (a freed
// one is not read again); pages released before move onto the new base,
// so the old one can close.
func TestReleaseSkipsFreedAndChanged(t *testing.T) {
	f := releaseFixture(t)
	old := freezeOnto(t, f, nil)
	mustWrite(t, f, 0, "zero")
	base := freezeOnto(t, f, func() {
		mustWrite(t, f, 1, "one")
		if err := f.Free(2); err != nil {
			t.Fatal(err)
		}
		for _, want := range []PageID{2, 4, 6} { // released, freed, new
			if id := f.Allocate(); id != want {
				t.Fatalf("allocated %d, want %d", id, want)
			}
		}
		mustWrite(t, f, 6, "six")
		if err := f.Free(3); err != nil {
			t.Fatal(err)
		}
	})
	old.Close()
	for id, held := range []bool{false, true, true, false, true, false, true} {
		if (f.pages[id] != nil) != held {
			t.Errorf("page %d: image held %v, want %v", id, f.pages[id] != nil, held)
		}
	}
	if n := f.Resident(); n != 4 {
		t.Fatalf("%d images resident, want 4", n)
	}
	wantImage(t, f, 0, []byte("zero"))
	wantImage(t, f, 5, []byte{6, 0xaa})
	if base.reads != 2 {
		t.Fatalf("new base served %d reads, want 2", base.reads)
	}
}

// TestReleaseReusedID: a released id that is freed and reused starts
// from a zeroed buffer of its own, which its base cannot serve (the base
// may hold the id freed); an id freed before the release keeps its image
// through reuse, as in a file that released nothing.
func TestReleaseReusedID(t *testing.T) {
	f := releaseFixture(t)
	base := freezeOnto(t, f, nil)
	if err := f.Free(3); err != nil {
		t.Fatal(err)
	}
	if id := f.Allocate(); id != 3 {
		t.Fatalf("reused %d, want 3", id)
	}
	wantImage(t, f, 3, nil)
	if id := f.Allocate(); id != 4 {
		t.Fatalf("reused %d, want 4", id)
	}
	wantImage(t, f, 4, []byte{5, 0xaa})
	if base.reads != 0 {
		t.Fatalf("reused pages read the base %d times", base.reads)
	}
	mustWrite(t, f, 3, "three")
	wantImage(t, f, 3, []byte("three"))
	wantImage(t, base.Store, 3, []byte{4, 0xaa})
}

// TestSnapshotFreedWhileOpen: a page freed while a snapshot is open
// leaves its image with the snapshot, so a reuse before the snapshot is
// closed starts zeroed and the snapshot still reads the old image. Close
// then hands back the image of a page freed but not yet reused, which a
// later reuse starts from; after Release such a reuse starts zeroed, as
// of any page read from the container. A page free before the snapshot
// keeps its image in the file either way.
func TestSnapshotFreedWhileOpen(t *testing.T) {
	// open frees page 2 and reuses it, writes it, then frees page 3.
	open := func(t *testing.T, f *File, s Store) {
		t.Helper()
		free := func(id PageID) {
			if err := f.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		free(2)
		if id := f.Allocate(); id != 2 {
			t.Fatalf("reused %d, want 2", id)
		}
		wantImage(t, f, 2, nil)
		mustWrite(t, f, 2, "two")
		free(3)
		wantImage(t, s, 2, []byte{3, 0xaa})
		wantImage(t, s, 3, []byte{4, 0xaa})
	}
	reuse := func(t *testing.T, f *File, want3 []byte) {
		t.Helper()
		wantImage(t, f, 2, []byte("two"))
		if id := f.Allocate(); id != 3 {
			t.Fatalf("reused %d, want 3", id)
		}
		wantImage(t, f, 3, want3)
		if id := f.Allocate(); id != 4 {
			t.Fatalf("reused %d, want 4", id)
		}
		wantImage(t, f, 4, []byte{5, 0xaa})
	}

	t.Run("close", func(t *testing.T) {
		f := releaseFixture(t)
		s := f.Snapshot()
		open(t, f, s)
		s.Close()
		if f.base != nil {
			t.Fatalf("base after Close is %T, want none", f.base)
		}
		reuse(t, f, []byte{4, 0xaa})
		if f.Resident() != 6 {
			t.Fatalf("%d images held, want 6", f.Resident())
		}
	})
	t.Run("release", func(t *testing.T) {
		f := releaseFixture(t)
		base := freezeOnto(t, f, func() { open(t, f, f.base) })
		reuse(t, f, nil)
		if base.reads != 0 {
			t.Fatalf("reused pages read the base %d times", base.reads)
		}
		wantImage(t, f, 0, []byte{1, 0xaa})
		if f.Resident() != 3 {
			t.Fatalf("%d images held, want 3 (pages 2, 3 and 4)", f.Resident())
		}
	})
}

// TestReleaseExtentMatchesInMemory: the same operations on two files,
// one released at every freeze, encode to the same extent bytes.
func TestReleaseExtentMatchesInMemory(t *testing.T) {
	mem, rel := releaseFixture(t), releaseFixture(t)
	step := func(fn func(f *File)) { fn(mem); fn(rel) }
	var bases []*countingBase
	for round := 0; round < 3; round++ {
		bases = append(bases, freezeOnto(t, rel, func() {
			step(func(f *File) { mustWrite(t, f, PageID(round), "between") })
		}))
		step(func(f *File) {
			mustWrite(t, f, PageID(5-round), "after")
			mustWrite(t, f, f.Allocate(), "grown")
		})
	}
	for _, b := range bases[:len(bases)-1] {
		b.Close()
	}
	var want, got bytes.Buffer
	if _, err := WriteExtent(&want, mem, LayoutOpaque); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteExtent(&got, rel, LayoutOpaque); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("a released file encodes differently from the file held in memory")
	}
	if rel.Resident() >= mem.Resident() {
		t.Fatalf("released file holds %d images of %d", rel.Resident(), mem.Resident())
	}
}

// TestReleaseRefusesMismatchedBase: a file reading through no snapshot,
// or a base of another size, changes nothing.
func TestReleaseRefusesMismatchedBase(t *testing.T) {
	f := releaseFixture(t)
	if err := f.Release(f); err == nil {
		t.Fatal("released a file that took no snapshot")
	}
	s := f.Snapshot()
	if err := f.Release(New(64)); err == nil {
		t.Fatal("released onto an empty base")
	}
	if f.Resident() != 5 || f.base != s {
		t.Fatalf("a refused release changed the file: %d resident", f.Resident())
	}
	s.Close()
	if f.Resident() != 5 || f.base != nil {
		t.Fatalf("a refused release changed the file: %d resident", f.Resident())
	}
}

// TestBufferReleaseForgetsDecodes: the buffer drops the decodes of the
// released pages and keeps the others, and its pool and counters are
// untouched.
func TestBufferReleaseForgetsDecodes(t *testing.T) {
	f := releaseFixture(t)
	b := NewBuffer(f, 3)
	decode := func(id PageID, data []byte) (any, error) { return data[0], nil }
	for _, id := range []PageID{0, 1, 2, 3, 5} {
		if _, err := b.ReadDecoded(id, decode); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Snapshot()
	var ext bytes.Buffer
	if _, err := WriteExtent(&ext, s, LayoutOpaque); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(1, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadDecoded(1, decode); err != nil {
		t.Fatal(err)
	}
	base, _, err := OpenExtent(bytes.NewReader(ext.Bytes()), 0, int64(ext.Len()), CodecIDCompressed, BackendDisk)
	if err != nil {
		t.Fatal(err)
	}
	stats, resident := b.Stats(), len(b.index)
	if err := b.Release(base); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if len(b.decoded) != 1 || b.decoded[1].value != byte(9) {
		t.Fatalf("decodes after release: %v, want page 1's alone", b.decoded)
	}
	if b.Stats() != stats || len(b.index) != resident {
		t.Fatal("release touched the pool")
	}
	for _, id := range []PageID{0, 2, 3, 5} {
		v, err := b.ReadDecoded(id, decode)
		if err != nil || v != byte(id+1) {
			t.Fatalf("page %d decodes to %v, %v after release", id, v, err)
		}
	}
	if err := NewBuffer(base, 1).Release(base); err == nil {
		t.Fatal("released a buffer over an opened extent")
	}
}

// TestSnapshotCloseHandsImagesBack: a snapshot closed with no release
// in its place (a freeze that failed) hands the file its images back:
// each page the file did not write meanwhile has its image of before
// the snapshot, in memory or read from the base, Resident reads as
// before, a write lands in place, and the next snapshot still copies
// the pages read from the base. The base stores its pages raw, which
// the encoder never picks for a node page, so a copy shows.
func TestSnapshotCloseHandsImagesBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	page := make([]byte, DefaultPageSize)
	var raw [][]byte
	for i := 0; i < 8; i++ {
		writeLayoutPage(page, LayoutPPR, 20, i%2 == 0, rng)
		raw = append(raw, cpEncodeRaw(nil, page))
	}
	f := Over(openBytes(t, testExtent(DefaultPageSize, LayoutPPR, raw)))
	base := f.base
	for _, id := range []PageID{1, 2} {
		writeLayoutPage(page, LayoutPPR, 10, true, rng)
		mustWrite(t, f, id, string(page))
	}
	before := slices.Clone(f.pages)
	if f.Resident() != 2 {
		t.Fatalf("%d images held before the snapshot, want 2", f.Resident())
	}

	s := f.Snapshot()
	writeLayoutPage(page, LayoutPPR, 12, false, rng)
	mustWrite(t, f, 1, string(page))
	wantImage(t, s, 1, before[1])
	if f.Resident() != 2 {
		t.Fatalf("%d images held with the snapshot open, want 2", f.Resident())
	}
	s.Close()

	if f.base != base {
		t.Fatalf("base after Close is %T, not the extent", f.base)
	}
	wantImage(t, f, 1, page)
	for id, p := range before {
		if id == 1 {
			continue
		}
		if (f.pages[id] == nil) != (p == nil) || p != nil && &f.pages[id][0] != &p[0] {
			t.Fatalf("page %d: not the file's image of before the snapshot", id)
		}
	}
	if f.Resident() != 2 {
		t.Fatalf("%d images held after Close, want 2", f.Resident())
	}
	p := &f.pages[2][0]
	mustWrite(t, f, 2, "in place")
	if &f.pages[2][0] != p {
		t.Fatal("a write after Close copied the page")
	}
	writeLayoutPage(page, LayoutPPR, 10, true, rng)
	mustWrite(t, f, 2, string(page))

	s = f.Snapshot()
	defer s.Close()
	var out bytes.Buffer
	if _, err := WriteExtent(&out, s, LayoutPPR); err != nil {
		t.Fatal(err)
	}
	for id, got := range storedPages(t, out.Bytes()) {
		if copied := bytes.Equal(got, raw[id]); copied != (id != 1 && id != 2) {
			t.Fatalf("page %d: copied from the base %v", id, copied)
		}
	}
}
