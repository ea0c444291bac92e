package pagefile

import (
	"bytes"
	"math/rand"
	"testing"
)

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
	if _, err := WriteExtent(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := readExtent(CodecIdentity, buf.Bytes())
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
	if _, err := readExtent(CodecIdentity, []byte("nope")); err == nil {
		t.Fatal("accepted short garbage")
	}
	if _, err := readExtent(CodecIdentity, []byte("XXXXaaaaaaaaaaaaaaaaaaaa")); err == nil {
		t.Fatal("accepted bad magic")
	}
	// Truncated page area.
	f := New(32)
	f.Allocate()
	var buf bytes.Buffer
	if _, err := WriteExtent(&buf, f); err != nil {
		t.Fatal(err)
	}
	if _, err := readExtent(CodecIdentity, buf.Bytes()[:buf.Len()-10]); err == nil {
		t.Fatal("accepted truncated image")
	}
}
