package pagefile

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
)

// testCodec is one extent format under test: the codec byte a container
// header names it by, and a writer.
type testCodec struct {
	name  string
	id    byte
	write func(w io.Writer, s Store, layout Layout) (int64, error)
}

// stpf and stpc are the two formats OpenExtent reads. Only STPC has a
// writer outside tests; writeSTPF keeps the decode-only identity reader
// covered.
var (
	stpf       = testCodec{"identity", CodecIDIdentity, writeSTPF}
	stpc       = testCodec{"compressed", CodecIDCompressed, WriteExtent}
	testCodecs = []testCodec{stpf, stpc}
)

func (c testCodec) open(r io.ReaderAt, off, size int64, flavour Backend) (Store, int64, error) {
	return OpenExtent(r, off, size, c.id, flavour)
}

// writeSTPF assembles an identity extent of s as the layout comment in
// serialize.go describes it: header, free list, then every allocated
// page, a freed one as zeros.
func writeSTPF(w io.Writer, s Store, _ Layout) (int64, error) {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte(fileMagic), fileVersion)
	b = le.AppendUint32(b, uint32(s.PageSize()))
	b = le.AppendUint32(b, uint32(s.NumAllocated()))
	b = le.AppendUint32(b, uint32(len(s.FreeList())))
	for _, id := range s.FreeList() {
		b = le.AppendUint32(b, uint32(id))
	}
	for i := 0; i < s.NumAllocated(); i++ {
		page := make([]byte, s.PageSize())
		if s.Check(PageID(i)) == nil {
			if err := s.ReadPage(PageID(i), page); err != nil {
				return 0, err
			}
		}
		b = append(b, page...)
	}
	n, err := w.Write(b)
	return int64(n), err
}

func TestFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := New(64)
	var live []PageID
	for i := 0; i < 30; i++ {
		id := f.Allocate()
		data := make([]byte, 1+rng.Intn(63))
		rng.Read(data)
		if err := f.write(id, data); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	// Free a few so the free list round-trips too.
	for _, i := range []int{3, 7, 19} {
		if err := f.Free(live[i]); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if _, err := writeSTPF(&buf, f, LayoutOpaque); err != nil {
		t.Fatal(err)
	}
	g, err := readExtent(stpf, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if g.PageSize() != f.PageSize() || g.NumPages() != f.NumPages() || g.NumAllocated() != f.NumAllocated() {
		t.Fatalf("shape differs: %d/%d pages", g.NumPages(), f.NumPages())
	}
	for i, id := range live {
		if i == 3 || i == 7 || i == 19 {
			if _, err := g.read(id); err == nil {
				t.Fatalf("freed page %d readable after reload", id)
			}
			continue
		}
		a, err := f.read(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("page %d differs after reload", id)
		}
	}
	// Freed pages must be reused in the same order.
	if want, got := f.Allocate(), g.Allocate(); want != got {
		t.Fatalf("allocation after reload: %d vs %d", got, want)
	}
}

func TestReadFileRejectsGarbage(t *testing.T) {
	if _, err := readExtent(stpf, []byte("nope")); err == nil {
		t.Fatal("accepted short garbage")
	}
	if _, err := readExtent(stpf, []byte("XXXXaaaaaaaaaaaaaaaaaaaa")); err == nil {
		t.Fatal("accepted bad magic")
	}
	// Truncated page area.
	f := New(32)
	f.Allocate()
	var buf bytes.Buffer
	if _, err := writeSTPF(&buf, f, LayoutOpaque); err != nil {
		t.Fatal(err)
	}
	if _, err := readExtent(stpf, buf.Bytes()[:buf.Len()-10]); err == nil {
		t.Fatal("accepted truncated image")
	}
}
