package pagefile

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// buildTestFile builds a File with a mixed allocate/write/free history.
func buildTestFile(t *testing.T, pageSize, pages, frees int) *File {
	t.Helper()
	src := New(pageSize)
	for i := 0; i < pages; i++ {
		id := src.Allocate()
		img := bytes.Repeat([]byte{byte(i + 1)}, pageSize)
		img[0] = byte(id)
		if err := src.WritePage(id, img); err != nil {
			t.Fatalf("WritePage(%d): %v", id, err)
		}
	}
	for i := 0; i < frees; i++ {
		if err := src.Free(PageID(i * 2)); err != nil {
			t.Fatalf("Free(%d): %v", i*2, err)
		}
	}
	return src
}

// writeTestExtent saves src as an extent under codec in a temp file,
// returning the file (opened for reading), the extent offset and the
// encoded extent. The file is closed at cleanup.
func writeTestExtent(t *testing.T, codec testCodec, layout Layout, src Store) (*os.File, int64, []byte) {
	t.Helper()
	var enc bytes.Buffer
	if _, err := codec.write(&enc, src, layout); err != nil {
		t.Fatalf("WriteExtent: %v", err)
	}
	// Leave an unaligned prefix before the extent so the mmap path has to
	// exercise its offset-alignment arithmetic.
	prefix := []byte("prefix-bytes-to-misalign!")
	path := filepath.Join(t.TempDir(), "extent")
	if err := os.WriteFile(path, append(prefix, enc.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f, int64(len(prefix)), enc.Bytes()
}

// sizeOf is the size of a test extent's file, the container size
// OpenExtent is given.
func sizeOf(t *testing.T, f *os.File) int64 {
	t.Helper()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// readExtent is the eager load of an encoded extent held in memory: the
// extent opened like a container and materialised into a writable File.
func readExtent(codec testCodec, enc []byte) (*File, error) {
	s, _, err := codec.open(bytes.NewReader(enc), 0, int64(len(enc)), BackendDisk)
	if err != nil {
		return nil, err
	}
	return Materialize(s)
}

// mapped reports whether s reads its pages out of a memory mapping.
func mapped(s Store) bool {
	e, ok := s.(*extentStore)
	if !ok {
		return false
	}
	_, ok = e.src.(*mmapSource)
	return ok
}

// assertFrozenParity checks that got is observationally identical to the
// source store it was opened from: same shape, same free list, same live
// page images, version 0 everywhere, and ErrReadOnly/InvalidPage on
// mutation.
func assertFrozenParity(t *testing.T, got Store, src *File) {
	t.Helper()
	if got.PageSize() != src.PageSize() {
		t.Fatalf("PageSize = %d, want %d", got.PageSize(), src.PageSize())
	}
	if got.NumPages() != src.NumPages() {
		t.Errorf("NumPages = %d, want %d", got.NumPages(), src.NumPages())
	}
	if got.NumAllocated() != src.NumAllocated() {
		t.Errorf("NumAllocated = %d, want %d", got.NumAllocated(), src.NumAllocated())
	}
	if got.Bytes() != src.Bytes() {
		t.Errorf("Bytes = %d, want %d", got.Bytes(), src.Bytes())
	}
	gf, sf := got.FreeList(), src.FreeList()
	if len(gf) != len(sf) {
		t.Fatalf("FreeList len = %d, want %d", len(gf), len(sf))
	}
	for i := range gf {
		if gf[i] != sf[i] {
			t.Errorf("FreeList[%d] = %d, want %d", i, gf[i], sf[i])
		}
	}
	want := make([]byte, src.PageSize())
	have := make([]byte, src.PageSize())
	for i := 0; i < src.NumAllocated(); i++ {
		id := PageID(i)
		serr, gerr := src.Check(id), got.Check(id)
		if (serr == nil) != (gerr == nil) {
			t.Fatalf("Check(%d): src %v, got %v", id, serr, gerr)
		}
		if serr != nil {
			continue
		}
		if err := src.ReadPage(id, want); err != nil {
			t.Fatalf("src.ReadPage(%d): %v", id, err)
		}
		if err := got.ReadPage(id, have); err != nil {
			t.Fatalf("got.ReadPage(%d): %v", id, err)
		}
		if !bytes.Equal(want, have) {
			t.Errorf("page %d image differs", id)
		}
		if v := got.Version(id); v != 0 {
			t.Errorf("Version(%d) = %d, want 0", id, v)
		}
	}
	if id := got.Allocate(); id != InvalidPage {
		t.Errorf("Allocate = %d, want InvalidPage", id)
	}
	if err := got.WritePage(0, want); !errors.Is(err, ErrReadOnly) {
		t.Errorf("WritePage err = %v, want ErrReadOnly", err)
	}
	liveID := PageID(src.NumAllocated() - 1)
	if err := got.Free(liveID); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Free err = %v, want ErrReadOnly", err)
	}
	ro, ok := got.(interface{ ReadOnly() bool })
	if !ok || !ro.ReadOnly() {
		t.Errorf("store does not report ReadOnly")
	}
}

// TestOpenExtentBackendFlavours opens one extent per codec and layout
// through every open flavour: each is observationally identical to the
// store it was saved from, reports the encoded length, and re-encodes to
// the same bytes.
func TestOpenExtentBackendFlavours(t *testing.T) {
	type extent struct {
		name   string
		codec  testCodec
		layout Layout
		src    *File
		f      *os.File
		off    int64
		enc    []byte
	}
	extents := []*extent{
		{name: "identity", codec: stpf, layout: LayoutOpaque},
		{name: "compressed-opaque", codec: stpc, layout: LayoutOpaque},
		{name: "compressed-ppr", codec: stpc, layout: LayoutPPR},
		{name: "compressed-rstar", codec: stpc, layout: LayoutRStar},
	}
	for _, x := range extents {
		x.src = New(DefaultPageSize)
		buildCodecWorkload(t, x.src, x.layout, rand.New(rand.NewSource(int64(x.layout)+7)))
		x.f, x.off, x.enc = writeTestExtent(t, x.codec, x.layout, x.src)
	}
	for _, flavour := range []Backend{"", BackendDisk, BackendMmap} {
		t.Run(string(flavour), func(t *testing.T) {
			for _, x := range extents {
				s, n, err := x.codec.open(x.f, x.off, sizeOf(t, x.f), flavour)
				if err != nil {
					t.Fatalf("%s: OpenExtent: %v", x.name, err)
				}
				if n != int64(len(x.enc)) {
					t.Fatalf("%s: extent length = %d, want %d", x.name, n, len(x.enc))
				}
				if flavour == BackendMmap && mmapSupported && !mapped(s) {
					t.Fatalf("%s: flavour mmap took no mapping (%T)", x.name, s)
				}
				assertFrozenParity(t, s, x.src)

				// Re-encoding the opened store must be byte-identical to
				// the saved extent, whatever the flavour.
				var got bytes.Buffer
				if _, err := x.codec.write(&got, s, x.layout); err != nil {
					t.Fatalf("%s: WriteExtent: %v", x.name, err)
				}
				if !bytes.Equal(got.Bytes(), x.enc) {
					t.Errorf("%s: re-encode differs from the saved extent", x.name)
				}
				if err := s.Close(); err != nil {
					t.Fatalf("%s: Close: %v", x.name, err)
				}
			}
		})
	}
}

// eachCodec runs fn once per codec.
func eachCodec(t *testing.T, fn func(t *testing.T, codec testCodec)) {
	for _, codec := range testCodecs {
		t.Run(codec.name, func(t *testing.T) { fn(t, codec) })
	}
}

func TestMmapStoreEmptyExtent(t *testing.T) {
	eachCodec(t, func(t *testing.T, codec testCodec) {
		src := buildTestFile(t, 128, 0, 0)
		f, off, _ := writeTestExtent(t, codec, LayoutOpaque, src)
		s, _, err := codec.open(f, off, sizeOf(t, f), BackendMmap)
		if err != nil {
			t.Fatalf("OpenExtent: %v", err)
		}
		defer s.Close()
		assertFrozenParity(t, s, src)
	})
}

func TestMmapStoreCloseIdempotent(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap not supported on this platform")
	}
	eachCodec(t, func(t *testing.T, codec testCodec) {
		f, off, _ := writeTestExtent(t, codec, LayoutOpaque, buildTestFile(t, 128, 4, 0))
		s, _, err := codec.open(f, off, sizeOf(t, f), BackendMmap)
		if err != nil {
			t.Fatalf("OpenExtent: %v", err)
		}
		if !mapped(s) {
			t.Fatalf("got %T with no mapping", s)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		buf := make([]byte, s.PageSize())
		if err := s.ReadPage(0, buf); err == nil {
			t.Fatalf("ReadPage after Close succeeded")
		}
	})
}

// TestMmapStoreConcurrentReaders reads one frozen store from many
// goroutines, with and without an image, for every codec and open
// flavour — the mapping and the pread window that serves cold opens —
// and the eager load's File.
func TestMmapStoreConcurrentReaders(t *testing.T) {
	eachCodec(t, func(t *testing.T, codec testCodec) {
		src := buildTestFile(t, 256, 16, 4)
		f, off, _ := writeTestExtent(t, codec, LayoutOpaque, src)
		open := func(t *testing.T, flavour Backend) Store {
			s, _, err := codec.open(f, off, sizeOf(t, f), flavour)
			if err != nil {
				t.Fatalf("OpenExtent: %v", err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}
		for _, flavour := range []Backend{BackendDisk, BackendMmap} {
			t.Run(string(flavour), func(t *testing.T) { concurrentReads(t, open(t, flavour), src) })
		}
		t.Run("materialized", func(t *testing.T) {
			m, err := Materialize(open(t, BackendDisk))
			if err != nil {
				t.Fatal(err)
			}
			concurrentReads(t, m, src)
		})
	})
}

// concurrentReads has 8 goroutines read every live page of s, with and
// without an image, and compares each image with src's.
func concurrentReads(t *testing.T, s Store, src *File) {
	t.Helper()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			buf := make([]byte, s.PageSize())
			want := make([]byte, s.PageSize())
			for iter := 0; iter < 200; iter++ {
				for i := 0; i < src.NumAllocated(); i++ {
					id := PageID(i)
					if src.Check(id) != nil {
						continue
					}
					// The image-less read shares the pooled scratch with
					// the decoding one.
					if err := s.ReadPage(id, nil); err != nil {
						done <- err
						return
					}
					if err := s.ReadPage(id, buf); err != nil {
						done <- err
						return
					}
					src.ReadPage(id, want)
					if !bytes.Equal(buf, want) {
						done <- errors.New("page image mismatch under concurrency")
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ReadPage(PageID(src.NumAllocated()), nil); !errors.Is(err, ErrBadPage) {
		t.Fatalf("image-less read of an unallocated page: %v, want ErrBadPage", err)
	}
}
