package pagefile

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// eachBackend runs fn once per Store implementation.
func eachBackend(t *testing.T, pageSize int, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { fn(t, New(pageSize)) })
	t.Run("disk", func(t *testing.T) {
		d, err := NewDiskStore(pageSize)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		fn(t, d)
	})
}

// TestFreeMisuse pins the failure modes of Free on both backends: double
// free, never-allocated ids and InvalidPage must all error without
// corrupting the free list.
func TestFreeMisuse(t *testing.T) {
	eachBackend(t, 64, func(t *testing.T, s Store) {
		a := s.Allocate()
		b := s.Allocate()
		if err := s.Free(InvalidPage); !errors.Is(err, ErrBadPage) {
			t.Fatalf("freeing InvalidPage: %v", err)
		}
		if err := s.Free(PageID(99)); !errors.Is(err, ErrBadPage) {
			t.Fatalf("freeing out-of-range page: %v", err)
		}
		if err := s.Free(a); err != nil {
			t.Fatal(err)
		}
		if err := s.Free(a); !errors.Is(err, ErrBadPage) {
			t.Fatalf("double free: %v", err)
		}
		if err := s.Check(a); !errors.Is(err, ErrBadPage) {
			t.Fatalf("checking freed page: %v", err)
		}
		if err := s.WritePage(a, []byte("x")); !errors.Is(err, ErrBadPage) {
			t.Fatalf("writing freed page: %v", err)
		}
		if err := s.ReadPage(a, make([]byte, 64)); !errors.Is(err, ErrBadPage) {
			t.Fatalf("reading freed page: %v", err)
		}
		// The misuse must not have perturbed the free list: a is reused
		// next, and the untouched page b is intact.
		if c := s.Allocate(); c != a {
			t.Fatalf("expected freed page %d to be reused, got %d", a, c)
		}
		if err := s.Check(b); err != nil {
			t.Fatal(err)
		}
		if s.NumPages() != 2 || s.NumAllocated() != 2 {
			t.Fatalf("NumPages=%d NumAllocated=%d after misuse", s.NumPages(), s.NumAllocated())
		}
	})
}

// TestStoreSemanticsMatch replays one allocate/free/write/read script on
// both backends and demands identical observable state — ids, free
// lists, version stamps and page contents. The buffer layer and the
// serialized extents rely on this equivalence for bit-identical layouts.
func TestStoreSemanticsMatch(t *testing.T) {
	mem := Store(New(32))
	d, err := NewDiskStore(32)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	disk := Store(d)

	var ids [2][]PageID
	for si, s := range []Store{mem, disk} {
		for i := 0; i < 6; i++ {
			id := s.Allocate()
			if err := s.WritePage(id, []byte{byte('a' + i)}); err != nil {
				t.Fatal(err)
			}
			ids[si] = append(ids[si], id)
		}
		if err := s.Free(ids[si][1]); err != nil {
			t.Fatal(err)
		}
		if err := s.Free(ids[si][4]); err != nil {
			t.Fatal(err)
		}
		// LIFO reuse: the two fresh pages land on 4 then 1.
		ids[si] = append(ids[si], s.Allocate(), s.Allocate())
	}
	for i := range ids[0] {
		if ids[0][i] != ids[1][i] {
			t.Fatalf("allocation %d: mem page %d, disk page %d", i, ids[0][i], ids[1][i])
		}
	}
	for si, s := range []Store{mem, disk} {
		last := ids[si][len(ids[si])-1]
		if err := s.WritePage(last, []byte("z")); err != nil {
			t.Fatal(err)
		}
	}
	if mem.NumPages() != disk.NumPages() || mem.NumAllocated() != disk.NumAllocated() {
		t.Fatalf("shape differs: mem %d/%d, disk %d/%d",
			mem.NumPages(), mem.NumAllocated(), disk.NumPages(), disk.NumAllocated())
	}
	memFree, diskFree := mem.FreeList(), disk.FreeList()
	if len(memFree) != len(diskFree) {
		t.Fatalf("free list length differs: %v vs %v", memFree, diskFree)
	}
	for i := range memFree {
		if memFree[i] != diskFree[i] {
			t.Fatalf("free list differs at %d: %v vs %v", i, memFree, diskFree)
		}
	}
	pm, pd := make([]byte, 32), make([]byte, 32)
	for id := PageID(0); id < PageID(mem.NumAllocated()); id++ {
		if mem.Check(id) != nil {
			continue
		}
		if mem.Version(id) != disk.Version(id) {
			t.Fatalf("page %d: version %d vs %d", id, mem.Version(id), disk.Version(id))
		}
		if err := mem.ReadPage(id, pm); err != nil {
			t.Fatal(err)
		}
		if err := disk.ReadPage(id, pd); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pm, pd) {
			t.Fatalf("page %d contents differ", id)
		}
	}
}

// TestDiskStoreZeroFill: an allocated page that was never written reads
// back as zeros — the disk file may simply not extend that far yet.
func TestDiskStoreZeroFill(t *testing.T) {
	d, err := NewDiskStore(64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id := d.Allocate()
	page := bytes.Repeat([]byte{0xee}, 64)
	if err := d.ReadPage(id, page); err != nil {
		t.Fatal(err)
	}
	for i, c := range page {
		if c != 0 {
			t.Fatalf("byte %d of a never-written page = %#x", i, c)
		}
	}
}

// TestDiskStoreConcurrentImagelessReads: query views of a built index
// read one DiskStore concurrently, and a read without an image (nil dst)
// borrows a pooled page buffer, so concurrent readers must neither race
// nor fail.
func TestDiskStoreConcurrentImagelessReads(t *testing.T) {
	d, err := NewDiskStore(64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 8; i++ {
		if err := d.WritePage(d.Allocate(), []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	d.Allocate() // never written: reads past the file's end
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for iter := 0; iter < 200; iter++ {
				for id := PageID(0); id < PageID(d.NumAllocated()); id++ {
					if err := d.ReadPage(id, nil); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ReadPage(PageID(d.NumAllocated()), nil); !errors.Is(err, ErrBadPage) {
		t.Fatalf("image-less read of an unallocated page: %v, want ErrBadPage", err)
	}
}

// TestBufferCapacityOne drives the degenerate one-frame pool on both
// backends: every distinct page access evicts the previous one, repeat
// reads of the same page hit.
func TestBufferCapacityOne(t *testing.T) {
	eachBackend(t, 64, func(t *testing.T, s Store) {
		b := NewBuffer(s, 1)
		p1, p2 := s.Allocate(), s.Allocate()
		if err := b.Write(p1, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := b.Write(p2, []byte{2}); err != nil {
			t.Fatal(err)
		}
		b.ResetStats()
		if _, err := b.Read(p2); err != nil { // resident after its write
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
		if st := b.Stats(); st.Reads != 2 || st.Hits != 2 {
			t.Fatalf("stats with capacity 1: %+v", st)
		}
		// A bad id must not evict the resident page.
		if _, err := b.Read(PageID(99)); !errors.Is(err, ErrBadPage) {
			t.Fatalf("reading bad page: %v", err)
		}
		if _, err := b.Read(p2); err != nil {
			t.Fatal(err)
		}
		if st := b.Stats(); st.Hits != 3 {
			t.Fatalf("resident page evicted by a failed read: %+v", st)
		}
	})
}

// TestNewStoreSelection covers the backend switch, including the
// environment default.
func TestNewStoreSelection(t *testing.T) {
	s, err := NewStore(BackendMemory, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*File); !ok {
		t.Fatalf("mem backend built %T", s)
	}
	s, err = NewStore(BackendDisk, 64)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := s.(*DiskStore)
	if !ok {
		t.Fatalf("disk backend built %T", s)
	}
	d.Close()
	if _, err := NewStore(Backend("bogus"), 64); err == nil {
		t.Fatal("accepted an unknown backend")
	}

	t.Setenv(EnvBackend, "disk")
	if got := DefaultBackend(); got != BackendDisk {
		t.Fatalf("DefaultBackend with %s=disk: %q", EnvBackend, got)
	}
	t.Setenv(EnvBackend, "")
	os.Unsetenv(EnvBackend)
	if got := DefaultBackend(); got != BackendMemory {
		t.Fatalf("DefaultBackend unset: %q", got)
	}
}
