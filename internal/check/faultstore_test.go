package check

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"stindex/internal/pagefile"
)

func TestScheduleRoundTrip(t *testing.T) {
	for _, s := range []string{
		"read@1", "write@3", "close@1", "read/7", "write/5",
		"short@2", "torn@4", "rand:42:0.05",
		"read@1,write/5,short@2", "rand:7:0.5,close@1",
	} {
		sched, err := ParseSchedule(s)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", s, err)
		}
		if got := sched.String(); got != s {
			t.Errorf("round-trip %q -> %q", s, got)
		}
	}
	for _, s := range []string{
		"", "read", "read@0", "read@x", "flush@1", "read/0",
		"rand:1", "rand:x:0.5", "rand:1:2", "rand:1:-0.5", "short/2",
	} {
		if _, err := ParseSchedule(s); err == nil {
			t.Errorf("ParseSchedule(%q) accepted a malformed schedule", s)
		}
	}
}

func TestFaultStoreDeterministicRules(t *testing.T) {
	const pageSize = 64
	inner := pagefile.New(pageSize)
	fs := NewFaultStore(inner, MustSchedule("read@2,write@3,close@2"))
	id := fs.Allocate()
	img := bytes.Repeat([]byte{7}, pageSize)
	dst := make([]byte, pageSize)

	if err := fs.WritePage(id, img); err != nil { // write 1
		t.Fatalf("write 1: %v", err)
	}
	if err := fs.ReadPage(id, dst); err != nil { // read 1
		t.Fatalf("read 1: %v", err)
	}
	if err := fs.ReadPage(id, dst); !errors.Is(err, ErrInjected) { // read 2
		t.Fatalf("read 2: want injected fault, got %v", err)
	}
	if err := fs.ReadPage(id, dst); err != nil { // read 3
		t.Fatalf("read 3: %v", err)
	}
	if err := fs.WritePage(id, img); err != nil { // write 2
		t.Fatalf("write 2: %v", err)
	}
	if err := fs.WritePage(id, img); !errors.Is(err, ErrInjected) { // write 3
		t.Fatalf("write 3: want injected fault, got %v", err)
	}
	if err := fs.Close(); err != nil { // close 1
		t.Fatalf("close 1: %v", err)
	}
	if err := fs.Close(); !errors.Is(err, ErrInjected) { // close 2
		t.Fatalf("close 2: want injected fault, got %v", err)
	}
	if got := fs.Injected(); got != 3 {
		t.Errorf("Injected() = %d, want 3", got)
	}
	r, w, c := fs.Ops()
	if r != 3 || w != 3 || c != 2 {
		t.Errorf("Ops() = (%d, %d, %d), want (3, 3, 2)", r, w, c)
	}
}

func TestFaultStoreShortRead(t *testing.T) {
	const pageSize = 64
	inner := pagefile.New(pageSize)
	fs := NewFaultStore(inner, MustSchedule("short@1"))
	id := fs.Allocate()
	img := bytes.Repeat([]byte{9}, pageSize)
	if err := fs.WritePage(id, img); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, pageSize)
	err := fs.ReadPage(id, dst)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short read: want injected fault, got %v", err)
	}
	half := pageSize / 2
	if !bytes.Equal(dst[:half], img[:half]) {
		t.Error("short read: prefix should be the real image")
	}
	if !bytes.Equal(dst[half:], make([]byte, pageSize-half)) {
		t.Error("short read: tail should be zeroed")
	}
}

func TestFaultStoreTornWrite(t *testing.T) {
	const pageSize = 64
	inner := pagefile.New(pageSize)
	fs := NewFaultStore(inner, MustSchedule("torn@1"))
	id := fs.Allocate()
	img := bytes.Repeat([]byte{5}, pageSize)
	if err := fs.WritePage(id, img); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: want injected fault, got %v", err)
	}
	dst := make([]byte, pageSize)
	if err := fs.ReadPage(id, dst); err != nil {
		t.Fatal(err)
	}
	half := pageSize / 2
	if !bytes.Equal(dst[:half], img[:half]) {
		t.Error("torn write: prefix should have been persisted")
	}
	if !bytes.Equal(dst[half:], make([]byte, pageSize-half)) {
		t.Error("torn write: tail should read back zeroed")
	}
}

func TestFaultStoreDisarm(t *testing.T) {
	const pageSize = 64
	inner := pagefile.New(pageSize)
	fs := NewFaultStore(inner, MustSchedule("read/1")) // every read fails
	id := fs.Allocate()
	if err := fs.WritePage(id, bytes.Repeat([]byte{1}, pageSize)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, pageSize)
	if err := fs.ReadPage(id, dst); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed: want injected fault, got %v", err)
	}
	fs.Disarm()
	if err := fs.ReadPage(id, dst); err != nil {
		t.Fatalf("disarmed: %v", err)
	}
}

func TestRandRuleDeterministic(t *testing.T) {
	sched := MustSchedule("rand:42:0.3")
	var first []bool
	for trial := 0; trial < 2; trial++ {
		var fired []bool
		for n := uint64(1); n <= 200; n++ {
			_, f := sched.decide(OpRead, n)
			fired = append(fired, f)
		}
		if trial == 0 {
			first = fired
			count := 0
			for _, f := range fired {
				if f {
					count++
				}
			}
			if count == 0 || count == len(fired) {
				t.Fatalf("rand:42:0.3 fired %d/200 times — not probabilistic", count)
			}
		} else {
			for i := range fired {
				if fired[i] != first[i] {
					t.Fatal("rand rule is not deterministic across replays")
				}
			}
		}
	}
}

func TestVerifyBufferFaults(t *testing.T) {
	if err := VerifyBufferFaults(); err != nil {
		t.Fatal(err)
	}
}

// TestImagelessReadFaultOnIdentityExtent runs VerifyBufferFaults'
// image-less read check over a decode-only identity extent, opened
// through the pread window and the mapping. Nothing writes STPF any
// more, so the one-page extent is assembled here from the layout in
// internal/pagefile/serialize.go: magic, version 1, page size, one
// allocated page, no free pages, then the page.
func TestImagelessReadFaultOnIdentityExtent(t *testing.T) {
	const pageSize = 128
	le := binary.LittleEndian
	extent := le.AppendUint32([]byte("STPF"), 1)
	extent = le.AppendUint32(le.AppendUint32(le.AppendUint32(extent, pageSize), 1), 0)
	extent = append(extent, bytes.Repeat([]byte{0xA1}, pageSize)...)
	path := filepath.Join(t.TempDir(), "identity.extent")
	if err := os.WriteFile(path, extent, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, flavour := range []pagefile.Backend{pagefile.BackendDisk, pagefile.BackendMmap} {
		s, _, err := pagefile.OpenExtent(f, 0, int64(len(extent)), pagefile.CodecIDIdentity, flavour)
		if err != nil {
			t.Fatalf("%s: %v", flavour, err)
		}
		if err := verifyImagelessReadFault(s, 0); err != nil {
			t.Errorf("%s: %v", flavour, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
