package pagefile

import (
	"bytes"
	"errors"
	"testing"
)

// eachBackend runs fn over the pages seed writes, once per kind of store:
// "mem" is the writable File seed wrote, "disk" the frozen store it saves
// to, read back through the pread window.
func eachBackend(t *testing.T, pageSize int, seed func(t *testing.T, f *File), fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		f := New(pageSize)
		seed(t, f)
		fn(t, f)
	})
	t.Run("disk", func(t *testing.T) {
		f := New(pageSize)
		seed(t, f)
		x, off, _ := writeTestExtent(t, stpc, LayoutOpaque, f)
		s, _, err := stpc.open(x, off, sizeOf(t, x), BackendDisk)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fn(t, s)
	})
}

// readOnly reports whether s is a frozen store.
func readOnly(s Store) bool {
	ro, ok := s.(interface{ ReadOnly() bool })
	return ok && ro.ReadOnly()
}

// TestFreeMisuse pins the failure modes of Free on the writable and the
// frozen store: double free, never-allocated ids and InvalidPage must all
// error without corrupting the free list. The writable store reports
// ErrBadPage; the frozen one refuses every mutation with ErrReadOnly.
func TestFreeMisuse(t *testing.T) {
	seed := func(t *testing.T, f *File) {
		a := f.Allocate()
		f.Allocate()
		if err := f.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	eachBackend(t, 64, seed, func(t *testing.T, s Store) {
		a, b := PageID(0), PageID(1)
		misuse := ErrBadPage
		if readOnly(s) {
			misuse = ErrReadOnly
		}
		if err := s.Free(InvalidPage); !errors.Is(err, misuse) {
			t.Fatalf("freeing InvalidPage: %v", err)
		}
		if err := s.Free(PageID(99)); !errors.Is(err, misuse) {
			t.Fatalf("freeing out-of-range page: %v", err)
		}
		if err := s.Free(a); !errors.Is(err, misuse) {
			t.Fatalf("double free: %v", err)
		}
		if err := s.Check(a); !errors.Is(err, ErrBadPage) {
			t.Fatalf("checking freed page: %v", err)
		}
		if err := s.WritePage(a, []byte("x")); !errors.Is(err, misuse) {
			t.Fatalf("writing freed page: %v", err)
		}
		if err := s.ReadPage(a, make([]byte, 64)); !errors.Is(err, ErrBadPage) {
			t.Fatalf("reading freed page: %v", err)
		}
		// The misuse must not have perturbed the free list: a is all it
		// holds, and the untouched page b is intact.
		if fl := s.FreeList(); len(fl) != 1 || fl[0] != a {
			t.Fatalf("free list %v after misuse, want [%d]", fl, a)
		}
		if err := s.Check(b); err != nil {
			t.Fatal(err)
		}
		if s.NumPages() != 1 || s.NumAllocated() != 2 {
			t.Fatalf("NumPages=%d NumAllocated=%d after misuse", s.NumPages(), s.NumAllocated())
		}
		want := a
		if readOnly(s) {
			want = InvalidPage
		}
		if c := s.Allocate(); c != want {
			t.Fatalf("Allocate after misuse = %d, want %d", c, want)
		}
	})
}

// TestStoreSemanticsMatch replays one allocate/free/write script on File
// — LIFO reuse, version bumps, a page allocated but never written — and
// demands that the frozen store it saves to, opened through every
// flavour with every codec, presents the identical observable state: ids,
// free list and page contents. Builds write File and queries may read the
// opened container, so the Buffer's I/O accounting relies on this
// equivalence.
func TestStoreSemanticsMatch(t *testing.T) {
	f := New(32)
	var ids []PageID
	for i := 0; i < 6; i++ {
		id := f.Allocate()
		if err := f.WritePage(id, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := f.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(ids[4]); err != nil {
		t.Fatal(err)
	}
	// LIFO reuse: the two fresh pages land on 4 then 1.
	ids = append(ids, f.Allocate(), f.Allocate())
	if ids[6] != 4 || ids[7] != 1 {
		t.Fatalf("reused ids %d, %d, want 4, 1", ids[6], ids[7])
	}
	if err := f.WritePage(ids[7], []byte("z")); err != nil {
		t.Fatal(err)
	}
	// Written, freed, reused and written again: three changes.
	if v := f.Version(ids[7]); v != 3 {
		t.Fatalf("version of a rewritten reused page = %d, want 3", v)
	}
	never := f.Allocate() // allocated, never written: reads as zeros
	page := make([]byte, 32)
	if err := f.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	eachCodec(t, func(t *testing.T, codec testCodec) {
		x, off, _ := writeTestExtent(t, codec, LayoutOpaque, f)
		for _, flavour := range []Backend{BackendDisk, BackendMmap} {
			s, _, err := codec.open(x, off, sizeOf(t, x), flavour)
			if err != nil {
				t.Fatalf("%s: %v", flavour, err)
			}
			assertFrozenParity(t, s, f)
			page[0] = 0xee
			if err := s.ReadPage(never, page); err != nil || !bytes.Equal(page, make([]byte, 32)) {
				t.Fatalf("%s: a never-written page reads %x (%v), want zeros", flavour, page, err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestBufferCapacityOne drives the degenerate one-frame pool over the
// writable and the frozen store: every distinct page access evicts the
// previous one, repeat reads of the same page hit.
func TestBufferCapacityOne(t *testing.T) {
	seed := func(t *testing.T, f *File) {
		for i := byte(1); i <= 2; i++ {
			if err := f.WritePage(f.Allocate(), []byte{i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	eachBackend(t, 64, seed, func(t *testing.T, s Store) {
		b := NewBuffer(s, 1)
		p1, p2 := PageID(0), PageID(1)
		if _, err := b.Read(p2); err != nil {
			t.Fatal(err)
		}
		base := b.Stats()
		if _, err := b.Read(p2); err != nil { // resident after its read
			t.Fatal(err)
		}
		if _, err := b.Read(p1); err != nil { // miss, evicts p2
			t.Fatal(err)
		}
		if _, err := b.Read(p1); err != nil { // hit
			t.Fatal(err)
		}
		page, err := b.Read(p2) // miss again
		if err != nil {
			t.Fatal(err)
		}
		if page[0] != 2 {
			t.Fatalf("page content %d after eviction churn", page[0])
		}
		if st := b.Stats().Sub(base); st.Reads != 2 || st.Hits != 2 {
			t.Fatalf("stats with capacity 1: %+v", st)
		}
		// A bad id must not evict the resident page.
		if _, err := b.Read(PageID(99)); !errors.Is(err, ErrBadPage) {
			t.Fatalf("reading bad page: %v", err)
		}
		if _, err := b.Read(p2); err != nil {
			t.Fatal(err)
		}
		if st := b.Stats().Sub(base); st.Hits != 3 {
			t.Fatalf("resident page evicted by a failed read: %+v", st)
		}
	})
}
