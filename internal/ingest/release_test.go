package ingest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	stx "stindex"

	"stindex/internal/pagefile"
)

// handleRanger answers Range from the live index alone.
type handleRanger struct{ h *Handle }

func (r handleRanger) Range(q stx.Rect, iv stx.Interval) ([]int64, error) {
	var io stx.IOStats
	return r.h.Range(q, iv, &io)
}

// liveFile is the live index's page file.
func liveFile(t *testing.T, h *Handle) *pagefile.File {
	t.Helper()
	f, ok := h.ix.Tree().Store().(*pagefile.File)
	if !ok {
		t.Fatalf("live store is %T", h.ix.Tree().Store())
	}
	return f
}

// liveVersions is the version of every page of the live file.
func liveVersions(f *pagefile.File) []uint64 {
	v := make([]uint64, f.NumAllocated())
	for id := range v {
		v[id] = f.Version(pagefile.PageID(id))
	}
	return v
}

// heldExactlyChanged checks that the live file holds the image of
// exactly the live pages whose version moved off since.
func heldExactlyChanged(t *testing.T, f *pagefile.File, since []uint64) {
	t.Helper()
	changed := 0
	for id := 0; id < f.NumAllocated(); id++ {
		if f.Check(pagefile.PageID(id)) != nil {
			continue
		}
		if id >= len(since) || f.Version(pagefile.PageID(id)) != since[id] {
			changed++
		}
	}
	if got := f.Resident(); got != changed {
		t.Fatalf("%d images held, %d pages changed", got, changed)
	}
}

// decodeCached reports whether the live buffer answers page id from a
// cached decode. The probe's decode runs only on a miss, and the page is
// evicted again so the tree never sees the probe's value.
func decodeCached(buf *pagefile.Buffer, id pagefile.PageID) bool {
	missed := false
	buf.ReadDecoded(id, func(pagefile.PageID, []byte) (any, error) {
		missed = true
		return nil, nil
	})
	buf.Evict(id)
	return !missed
}

// TestFreezeReleasesUnchangedPages runs several freezes, each with a
// batch applied between its snapshot and its release. After each, the
// live file holds the images of exactly the pages that batch changed,
// the buffer holds no decode of a released page, live answers match a
// shadow replay, and the container, encoded from a snapshot that reads
// released pages from the previous one, is byte-identical to
// EncodeIndexOptions at its seq; before the next freeze, the file holds
// exactly the pages changed since the snapshot.
func TestFreezeReleasesUnchangedPages(t *testing.T) {
	batches := feedBatches(60)
	in, err := Open(Config{Dir: t.TempDir(), Lambda: testLambda, Tree: testStreamOptions().PPR})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	h := in.handle
	var atSnapshot []uint64
	var want bytes.Buffer
	next := 0
	submitNext := func() {
		if _, err := in.Submit(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	freezeEncodeHook = func() {
		want.Reset()
		h.locked(func() {
			atSnapshot = liveVersions(liveFile(t, h))
			if _, err := stx.EncodeIndexOptions(&want, h.ix, stx.SaveOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		submitNext()
	}
	defer func() { freezeEncodeHook = nil }()

	for round := 0; round < 4; round++ {
		for end := next + 12; next < end; {
			submitNext()
		}
		answers := probeAnswers(t, shadowReplay(t, flatten(batches[:next])))
		if got := probeAnswers(t, handleRanger{h}); !reflect.DeepEqual(got, answers) {
			t.Fatalf("round %d: live answers before the freeze:\n got %v\nwant %v", round, got, answers)
		}
		h.locked(func() {
			f := liveFile(t, h)
			if atSnapshot != nil {
				heldExactlyChanged(t, f, atSnapshot)
			}
			cached := 0
			for id := 0; id < f.NumAllocated(); id++ {
				if decodeCached(h.ix.Tree().Buffer(), pagefile.PageID(id)) {
					cached++
				}
			}
			if cached == 0 {
				t.Fatalf("round %d: live queries cached no decode", round)
			}
		})
		// The probe evicted the decodes: query again to cache them.
		probeAnswers(t, handleRanger{h})

		if froze, err := in.Freeze(); err != nil || !froze {
			t.Fatalf("round %d: Freeze = %v, %v", round, froze, err)
		}
		if got, err := os.ReadFile(in.frozenPath); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("round %d: the container (%d bytes, %v) differs from EncodeIndexOptions' %d", round, len(got), err, want.Len())
		}
		h.locked(func() {
			f := liveFile(t, h)
			heldExactlyChanged(t, f, atSnapshot)
			if f.Resident() == 0 || f.Resident() >= f.NumPages() {
				t.Fatalf("round %d: %d of %d pages held; the batch in the freeze changes some, not all", round, f.Resident(), f.NumPages())
			}
			buf := h.ix.Tree().Buffer()
			for id := 0; id < f.NumAllocated(); id++ {
				if id < len(atSnapshot) && f.Version(pagefile.PageID(id)) == atSnapshot[id] && decodeCached(buf, pagefile.PageID(id)) {
					t.Fatalf("round %d: released page %d kept its decode", round, id)
				}
			}
		})
		answers = probeAnswers(t, shadowReplay(t, flatten(batches[:next])))
		if got := probeAnswers(t, handleRanger{h}); !reflect.DeepEqual(got, answers) {
			t.Fatalf("round %d: live answers after the freeze:\n got %v\nwant %v", round, got, answers)
		}
		st := in.Stats()
		if st.Pages == 0 || st.ResidentPages >= st.Pages {
			t.Fatalf("round %d: metrics pages %d resident %d", round, st.Pages, st.ResidentPages)
		}
	}
}

// TestFreezeKeepsImagesWithoutBase: a freeze whose container cannot be
// opened as a base stands, reports the error and keeps every image; the
// next freeze releases them.
func TestFreezeKeepsImagesWithoutBase(t *testing.T) {
	batches := feedBatches(40)
	in, err := Open(Config{Dir: t.TempDir(), Lambda: testLambda, Tree: testStreamOptions().PPR})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	h := in.handle
	submitAll(t, in, batches[:20])
	openBase = func(string) (pagefile.Store, error) { return nil, errors.New("no base") }
	froze, err := in.Freeze()
	openBase = stx.OpenPageExtent
	if !froze || err == nil || !strings.Contains(err.Error(), "no base") {
		t.Fatalf("Freeze = %v, %v; want a durable freeze reporting the base", froze, err)
	}
	if st := in.Stats(); st.Freezes != 1 || st.FreezeErrors != 1 || st.ResidentPages != st.Pages {
		t.Fatalf("stats after the failed release: %+v", st)
	}
	want := probeAnswers(t, shadowReplay(t, flatten(batches[:20])))
	if got := probeAnswers(t, handleRanger{h}); !reflect.DeepEqual(got, want) {
		t.Fatalf("live answers:\n got %v\nwant %v", got, want)
	}
	submitAll(t, in, batches[20:25])
	if _, err := in.Freeze(); err != nil {
		t.Fatal(err)
	}
	if st := in.Stats(); st.ResidentPages != 0 {
		t.Fatalf("%d of %d pages held after a freeze with nothing applied during it", st.ResidentPages, st.Pages)
	}
	want = probeAnswers(t, shadowReplay(t, flatten(batches[:25])))
	if got := probeAnswers(t, handleRanger{h}); !reflect.DeepEqual(got, want) {
		t.Fatalf("live answers after the release:\n got %v\nwant %v", got, want)
	}
}

// TestRecoverHoldsOnlyReplayedPages restarts from a journal with three
// freezes and a tail: the recovered index holds the images of exactly
// the pages the replay wrote, reads the rest from the container, and
// answers as the index did before the restart.
func TestRecoverHoldsOnlyReplayedPages(t *testing.T) {
	batches := feedBatches(48)
	dir := t.TempDir()
	in, err := Open(Config{Dir: dir, Lambda: testLambda, Tree: testStreamOptions().PPR})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	for _, end := range []int{12, 24, 36} {
		submitAll(t, in, batches[end-12:end])
		if _, err := in.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
	submitAll(t, in, batches[36:])
	want := probeAnswers(t, handleRanger{in.handle})
	crash := filepath.Join(t.TempDir(), "image")
	copyDir(t, dir, crash) // before Close freezes the tail away

	rec, err := Recover(crash, RecoverOptions{Tree: testStreamOptions().PPR})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.WAL.Close()
	defer rec.Base.Close()
	if rec.Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	f, ok := rec.Index.Tree().Store().(*pagefile.File)
	if !ok {
		t.Fatalf("recovered store is %T", rec.Index.Tree().Store())
	}
	written := 0
	for id := 0; id < f.NumAllocated(); id++ {
		if f.Check(pagefile.PageID(id)) == nil && f.Version(pagefile.PageID(id)) > 0 {
			written++
		}
	}
	if written == 0 || f.Resident() != written || written >= f.NumPages() {
		t.Fatalf("%d images held, the replay wrote %d of %d pages", f.Resident(), written, f.NumPages())
	}
	if got := probeAnswers(t, rec.Index); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered answers:\n got %v\nwant %v", got, want)
	}
}
