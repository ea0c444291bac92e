package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	stx "stindex"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// encodedExtent is the page extent of the live index's container as the
// encoder writes it from images held in memory: the live file's pages,
// released ones read back from its base, in a file of their own with no
// base to copy from.
func encodedExtent(t *testing.T, h *Handle) []byte {
	t.Helper()
	inMemory, err := pagefile.Materialize(liveFile(t, h))
	if err != nil {
		t.Fatal(err)
	}
	var ext bytes.Buffer
	if _, err := pagefile.WriteExtent(&ext, inMemory, pagefile.LayoutPPR); err != nil {
		t.Fatal(err)
	}
	return ext.Bytes()
}

// TestFreezeCopiesReleasedPages runs freezes whose snapshots read most
// pages from the previous container, with a batch applied between each
// snapshot and its write, then restarts from a journal with a tail and
// freezes again over the base ingest.Recover opened. Every container is
// byte-identical to EncodeIndexOptions at its seq, and its page extent
// to the one encoded from the pages held in memory.
func TestFreezeCopiesReleasedPages(t *testing.T) {
	batches := feedBatches(60)
	next := 0
	var want, wantExtent []byte
	var in *Ingester
	hook := func() {
		in.handle.locked(func() {
			var buf bytes.Buffer
			if _, err := stx.EncodeIndexOptions(&buf, in.handle.ix, stx.SaveOptions{}); err != nil {
				t.Fatal(err)
			}
			want, wantExtent = buf.Bytes(), encodedExtent(t, in.handle)
		})
		if _, err := in.Submit(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	freeze := func(what string) {
		t.Helper()
		if f := in.handle.ix.Tree().Store().(*pagefile.File); f.Resident() >= f.NumPages() {
			t.Fatalf("%s: all %d pages held; nothing to copy", what, f.NumPages())
		}
		freezeEncodeHook = hook
		froze, err := in.Freeze()
		freezeEncodeHook = nil
		if err != nil || !froze {
			t.Fatalf("%s: Freeze = %v, %v", what, froze, err)
		}
		got, err := os.ReadFile(in.frozenPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the container (%d bytes) differs from EncodeIndexOptions' %d", what, len(got), len(want))
		}
		if !bytes.HasSuffix(got, wantExtent) {
			t.Fatalf("%s: the container's page extent differs from the one encoded in memory", what)
		}
	}

	dir := t.TempDir()
	var err error
	if in, err = Open(Config{Dir: dir, Lambda: testLambda, Tree: testStreamOptions().PPR}); err != nil {
		t.Fatal(err)
	}
	defer func() { in.Close() }()
	for ; next < 12; next++ {
		if _, err := in.Submit(batches[next]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := in.Freeze(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		submitAll(t, in, batches[next:next+8])
		next += 8
		freeze(fmt.Sprintf("round %d", round+1))
	}
	submitAll(t, in, batches[next:next+6])
	next += 6
	crash := filepath.Join(t.TempDir(), "image")
	copyDir(t, dir, crash) // before Close freezes the tail away
	in.Close()

	if in, err = Open(Config{Dir: crash, Lambda: testLambda, Tree: testStreamOptions().PPR}); err != nil {
		t.Fatal(err)
	}
	if in.c.replayed.Load() == 0 {
		t.Fatal("nothing replayed")
	}
	freeze("after recovery")
	wantAnswers := probeAnswers(t, shadowReplay(t, flatten(batches[:next])))
	if got := probeAnswers(t, handleRanger{in.handle}); !reflect.DeepEqual(got, wantAnswers) {
		t.Fatalf("live answers after recovery and a freeze:\n got %v\nwant %v", got, wantAnswers)
	}
}

// storedPageOffset returns the file offset of a page's stored bytes in
// the container at path: past the container header and meta section, the
// extent's header, free list and length table, and the pages before it.
func storedPageOffset(t *testing.T, path string, id int) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const containerHeader, extentHeader = 20, 24
	ext := containerHeader + int64(binary.LittleEndian.Uint64(data[12:]))
	numPages := int64(binary.LittleEndian.Uint32(data[ext+12:]))
	lens := ext + extentHeader + 4*int64(binary.LittleEndian.Uint32(data[ext+16:]))
	off := lens + 4*numPages
	for i := 0; i < id; i++ {
		off += int64(binary.LittleEndian.Uint32(data[lens+4*int64(i):]))
	}
	return off
}

// TestFreezeRefusesCorruptReleasedPage overwrites the mode byte of a
// released page in the container the live index reads it from. The
// copy still decodes the page, so the next freeze fails as a
// decode-and-encode freeze did: freeze_errors counts it, CURRENT, the
// journal and every other file stay as they were, and the live index
// answers as a shadow replay does. Once the byte is back it freezes.
func TestFreezeRefusesCorruptReleasedPage(t *testing.T) {
	batches := feedBatches(60)
	dir := t.TempDir()
	in, err := Open(Config{Dir: dir, Lambda: testLambda, Tree: testStreamOptions().PPR})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	h := in.handle
	submitAll(t, in, batches[:30])
	if _, err := in.Freeze(); err != nil {
		t.Fatal(err)
	}
	// A dead node: no later apply writes it, so it stays released.
	dead := -1
	h.locked(func() {
		f := liveFile(t, h)
		if f.Resident() != 0 {
			t.Fatalf("%d pages held after a freeze with nothing applied during it", f.Resident())
		}
		page := make([]byte, f.PageSize())
		for id := 0; id < f.NumAllocated() && dead < 0; id++ {
			if f.Check(pagefile.PageID(id)) != nil {
				continue
			}
			if err := f.ReadPage(pagefile.PageID(id), page); err != nil {
				t.Fatal(err)
			}
			if int64(binary.LittleEndian.Uint64(page[16:])) != geom.Now {
				dead = id
			}
		}
	})
	if dead < 0 {
		t.Fatal("no dead node to corrupt")
	}
	container := in.frozenPath
	off := storedPageOffset(t, container, dead)
	cf, err := os.OpenFile(container, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	mode := make([]byte, 1)
	if _, err := cf.ReadAt(mode, off); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.WriteAt([]byte{0x7f}, off); err != nil {
		t.Fatal(err)
	}

	submitAll(t, in, batches[30:36])
	before := dirState(t, dir)
	current, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		t.Fatal(err)
	}
	froze, err := in.Freeze()
	if froze || err == nil || !strings.Contains(err.Error(), "unknown encoding mode") {
		t.Fatalf("Freeze over a corrupt released page = %v, %v", froze, err)
	}
	if st := in.Stats(); st.FreezeErrors != 1 || st.Freezes != 1 {
		t.Fatalf("after the failed freeze: freeze_errors %d, freezes %d", st.FreezeErrors, st.Freezes)
	}
	if got := dirState(t, dir); !reflect.DeepEqual(got, before) {
		t.Fatalf("the failed freeze changed the directory:\n got %v\nwant %v", got, before)
	}
	if got, err := os.ReadFile(filepath.Join(dir, currentFile)); err != nil || !bytes.Equal(got, current) {
		t.Fatalf("CURRENT after the failed freeze: %q, %v; was %q", got, err, current)
	}
	if in.frozenPath != container {
		t.Fatalf("the failed freeze moved the frozen container to %s", in.frozenPath)
	}

	want := probeAnswers(t, shadowReplay(t, flatten(batches[:36])))
	if got := probeAnswers(t, handleRanger{h}); !reflect.DeepEqual(got, want) {
		t.Fatalf("live answers after the failed freeze:\n got %v\nwant %v", got, want)
	}
	if _, err := cf.WriteAt(mode, off); err != nil {
		t.Fatal(err)
	}
	if froze, err := in.Freeze(); err != nil || !froze {
		t.Fatalf("Freeze once the page is mended = %v, %v", froze, err)
	}
}
