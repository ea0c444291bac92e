package pagefile

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// read returns a copy of the page's image, read as a Buffer miss reads it.
func (f *File) read(id PageID) ([]byte, error) {
	p := make([]byte, f.pageSize)
	return p, f.ReadPage(id, p)
}

func TestAllocateWriteRead(t *testing.T) {
	f := New(128)
	a := f.Allocate()
	b := f.Allocate()
	if a == b {
		t.Fatal("allocated the same page twice")
	}
	if err := f.write(a, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := f.read(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:5], []byte("hello")) {
		t.Fatalf("read back %q", got[:5])
	}
	if len(got) != 128 {
		t.Fatalf("page length %d", len(got))
	}
	// Short writes zero the remainder.
	if err := f.write(a, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, _ = f.read(a)
	if got[0] != 'x' || got[1] != 0 || got[4] != 0 {
		t.Fatal("short write did not zero the page tail")
	}
}

func TestWriteTooLarge(t *testing.T) {
	f := New(8)
	id := f.Allocate()
	if err := f.write(id, make([]byte, 9)); !errors.Is(err, ErrPageTooLarge) {
		t.Fatalf("want ErrPageTooLarge, got %v", err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	f := New(64)
	a := f.Allocate()
	_ = f.Allocate()
	if f.NumPages() != 2 {
		t.Fatalf("NumPages = %d", f.NumPages())
	}
	if err := f.Free(a); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 1 {
		t.Fatalf("NumPages after free = %d", f.NumPages())
	}
	if _, err := f.read(a); !errors.Is(err, ErrBadPage) {
		t.Fatalf("reading freed page: %v", err)
	}
	if err := f.Free(a); !errors.Is(err, ErrBadPage) {
		t.Fatalf("double free: %v", err)
	}
	c := f.Allocate()
	if c != a {
		t.Fatalf("expected freed page %d to be reused, got %d", a, c)
	}
	if f.NumAllocated() != 2 {
		t.Fatalf("NumAllocated = %d", f.NumAllocated())
	}
	if f.Bytes() != 2*64 {
		t.Fatalf("Bytes = %d", f.Bytes())
	}
}

func TestBadPageAccess(t *testing.T) {
	f := New(64)
	if _, err := f.read(5); !errors.Is(err, ErrBadPage) {
		t.Fatalf("read out of range: %v", err)
	}
	if err := f.write(5, nil); !errors.Is(err, ErrBadPage) {
		t.Fatalf("write out of range: %v", err)
	}
}

func TestBufferHitMiss(t *testing.T) {
	f := New(64)
	b := NewBuffer(f, 2)
	p1, p2, p3 := f.Allocate(), f.Allocate(), f.Allocate()
	for i, p := range []PageID{p1, p2, p3} {
		if err := b.Write(p, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	base := b.Stats()

	// p3 and p2 should be resident (capacity 2, LRU), p1 evicted.
	if _, err := b.Read(p3); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(p2); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats().Sub(base); st.Hits != 2 || st.Reads != 0 {
		t.Fatalf("warm reads: %+v", st)
	}
	if _, err := b.Read(p1); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats().Sub(base); st.Reads != 1 {
		t.Fatalf("cold read: %+v", st)
	}
}

func TestBufferLRUOrder(t *testing.T) {
	f := New(64)
	b := NewBuffer(f, 2)
	p1, p2, p3 := f.Allocate(), f.Allocate(), f.Allocate()
	for _, p := range []PageID{p1, p2} {
		if _, err := b.Read(p); err != nil {
			t.Fatal(err)
		}
	}
	// Touch p1 so p2 becomes the LRU victim.
	if _, err := b.Read(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(p3); err != nil {
		t.Fatal(err)
	}
	base := b.Stats()
	if _, err := b.Read(p1); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats().Sub(base); st.Hits != 1 {
		t.Fatalf("p1 should still be resident: %+v", st)
	}
	if _, err := b.Read(p2); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats().Sub(base); st.Reads != 1 {
		t.Fatalf("p2 should have been evicted: %+v", st)
	}
}

func TestBufferWriteThrough(t *testing.T) {
	f := New(64)
	b := NewBuffer(f, 2)
	p := f.Allocate()
	if err := b.Write(p, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	// The file must hold the data even after the buffer forgets the page.
	b.Reset()
	data, err := f.read(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:3], []byte("abc")) {
		t.Fatal("write-through failed")
	}
}

func TestBufferReset(t *testing.T) {
	f := New(64)
	b := NewBuffer(f, 4)
	p := f.Allocate()
	if err := b.Write(p, []byte("z")); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if st := b.Stats(); st != (Stats{}) {
		t.Fatalf("stats after reset: %+v", st)
	}
	if _, err := b.Read(p); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Reads != 1 || st.Hits != 0 {
		t.Fatalf("cold cache after reset: %+v", st)
	}
}

func TestBufferEvict(t *testing.T) {
	f := New(64)
	b := NewBuffer(f, 4)
	p := f.Allocate()
	if _, err := b.Read(p); err != nil {
		t.Fatal(err)
	}
	b.Evict(p)
	base := b.Stats()
	if _, err := b.Read(p); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats().Sub(base); st.Reads != 1 {
		t.Fatalf("evicted page should miss: %+v", st)
	}
	b.Evict(999) // evicting an absent page is a no-op
}

// TestBufferModelCheck drives the LRU buffer with random operations and
// cross-checks every read against a trivially correct reference model.
func TestBufferModelCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := New(16)
		b := NewBuffer(f, 1+r.Intn(4))
		model := make(map[PageID]byte)
		var pages []PageID
		for op := 0; op < 200; op++ {
			switch {
			case len(pages) == 0 || r.Intn(4) == 0:
				p := f.Allocate()
				pages = append(pages, p)
				v := byte(r.Intn(255) + 1)
				if b.Write(p, []byte{v}) != nil {
					return false
				}
				model[p] = v
			case r.Intn(2) == 0:
				p := pages[r.Intn(len(pages))]
				v := byte(r.Intn(255) + 1)
				if b.Write(p, []byte{v}) != nil {
					return false
				}
				model[p] = v
			default:
				p := pages[r.Intn(len(pages))]
				data, err := b.Read(p)
				if err != nil || data[0] != model[p] {
					return false
				}
			}
		}
		// Invariant: stats balance out — every request is a hit or a read.
		st := b.Stats()
		return st.Reads >= 0 && st.Hits >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsIO(t *testing.T) {
	s := Stats{Reads: 3, Writes: 4, Hits: 10}
	if s.IO() != 7 {
		t.Fatalf("IO = %d", s.IO())
	}
}

func TestDefaultPageSize(t *testing.T) {
	f := New(0)
	if f.PageSize() != DefaultPageSize {
		t.Fatalf("PageSize = %d", f.PageSize())
	}
	if NewBuffer(f, 0).Capacity() != 1 {
		t.Fatal("buffer capacity should clamp to 1")
	}
}

// TestSnapshotCopyOnWrite: a snapshot keeps the pages, free list and
// versions of the instant it was taken while the file goes on writing,
// freeing and reusing pages; its extent encodes as the file's did then.
// Once the snapshot is closed, the file holds its images again and
// writes land in place.
func TestSnapshotCopyOnWrite(t *testing.T) {
	f := New(64)
	for i := 0; i < 6; i++ {
		id := f.Allocate()
		if err := f.write(id, []byte{byte(i + 1), 0xaa}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Free(4); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := WriteExtent(&want, f, LayoutOpaque); err != nil {
		t.Fatal(err)
	}
	wantFree, wantVersion := f.FreeList(), f.Version(1)

	s := f.Snapshot()
	if err := f.write(1, []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(2); err != nil {
		t.Fatal(err)
	}
	if id := f.Allocate(); id != 2 {
		t.Fatalf("reused %d, want 2", id)
	}
	if err := f.write(2, []byte("reused")); err != nil {
		t.Fatal(err)
	}
	if err := f.write(f.Allocate(), []byte("new")); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := WriteExtent(&got, s, LayoutOpaque); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the snapshot's extent differs from the file's at the snapshot")
	}
	if !reflect.DeepEqual(s.FreeList(), wantFree) || s.Version(1) != wantVersion || s.NumAllocated() != 6 {
		t.Fatalf("snapshot tables: free %v version %d allocated %d; want %v, %d, 6", s.FreeList(), s.Version(1), s.NumAllocated(), wantFree, wantVersion)
	}
	if err := s.Check(4); !errors.Is(err, ErrBadPage) {
		t.Fatalf("snapshot Check(freed) = %v", err)
	}
	if s.Allocate() != InvalidPage || !errors.Is(s.WritePage(0, nil), ErrReadOnly) || !errors.Is(s.Free(0), ErrReadOnly) {
		t.Fatal("a snapshot accepted a mutation")
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Close() // idempotent: must not hand the images back twice
	if f.base != nil || f.Resident() != 6 {
		t.Fatalf("after Close: base %v, %d images held, want none and 6", f.base, f.Resident())
	}
	p := &f.pages[3][0]
	if err := f.write(3, []byte("in place")); err != nil {
		t.Fatal(err)
	}
	if &f.pages[3][0] != p {
		t.Fatal("a write with no snapshot open copied the page")
	}
}
