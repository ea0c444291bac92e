package stindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stindex/internal/datagen"
	"stindex/internal/pagefile"
	"stindex/internal/stio"
)

// encodeContainerMeta is containerMeta with the meta section written
// out whole.
func encodeContainerMeta(x Index) (byte, []byte, pagefile.Store, error) {
	kind, meta, store, err := containerMeta(x)
	if err != nil {
		return 0, nil, nil, err
	}
	var b bytes.Buffer
	if _, err := meta.WriteTo(&b); err != nil {
		return 0, nil, nil, err
	}
	return kind, b.Bytes(), store, nil
}

// persistFixtures builds one index of every built container kind over
// the same dataset.
func persistFixtures(t *testing.T) map[string]Index {
	t.Helper()
	objs := genObjects(t, 300, 21)
	records, _, err := SplitDataset(objs, SplitConfig{Budget: 450})
	if err != nil {
		t.Fatal(err)
	}
	ppr, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	rstar, err := BuildRStar(records, RStarOptions{ShuffleSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Index{"ppr": ppr, "rstar": rstar}
}

// reopenedFixtures saves each of persistFixtures' indexes and reopens it
// with the flavour; the copies are closed when the test ends.
func reopenedFixtures(t *testing.T, backend Backend) map[string]Index {
	t.Helper()
	fixtures := persistFixtures(t)
	dir := t.TempDir()
	for kind, built := range fixtures {
		path := filepath.Join(dir, kind+".stic")
		if err := SaveIndex(path, built); err != nil {
			t.Fatal(err)
		}
		opened, err := OpenIndexOptions(path, OpenOptions{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { CloseIndex(opened) })
		fixtures[kind] = opened
	}
	return fixtures
}

func persistQueries(t *testing.T) []Query {
	t.Helper()
	snap, err := GenerateQueries(QuerySnapshotMixed, 1000, 31)
	if err != nil {
		t.Fatal(err)
	}
	rng, err := GenerateQueries(QueryRangeSmall, 1000, 33)
	if err != nil {
		t.Fatal(err)
	}
	return append(snap[:40:40], rng[:40]...)
}

// expectSameAnswers runs the queries on both indexes and demands
// identical result sets and identical cold-buffer I/O statistics.
func expectSameAnswers(t *testing.T, label string, orig, loaded Index, queries []Query) {
	t.Helper()
	for qi, q := range queries {
		a, err := RunQuery(orig, q)
		if err != nil {
			t.Fatalf("%s query %d on original: %v", label, qi, err)
		}
		b, err := RunQuery(loaded, q)
		if err != nil {
			t.Fatalf("%s query %d on loaded: %v", label, qi, err)
		}
		if !equalIDs(sortedIDs(a), sortedIDs(b)) {
			t.Fatalf("%s query %d: original %d results, loaded %d", label, qi, len(a), len(b))
		}
	}
	// Replaying the workload cold must cost exactly the same disk
	// accesses: the loaded tree's page layout is byte-identical and the
	// buffer policy deterministic (the paper's AvgIO metric depends on
	// both).
	orig.ResetBuffer()
	loaded.ResetBuffer()
	for _, q := range queries[:10] {
		if _, err := RunQuery(orig, q); err != nil {
			t.Fatal(err)
		}
		if _, err := RunQuery(loaded, q); err != nil {
			t.Fatal(err)
		}
	}
	if orig.IOStats() != loaded.IOStats() {
		t.Fatalf("%s: I/O differs after reload: %+v vs %+v", label, orig.IOStats(), loaded.IOStats())
	}
}

// TestContainerRoundTripAllKinds saves and reloads every index kind
// through both the eager (Encode/Decode) and lazy (Save/Open) paths, from
// the built index and from one reopened through the pread window, and
// demands identical answers and I/O.
func TestContainerRoundTripAllKinds(t *testing.T) {
	queries := persistQueries(t)
	for _, from := range []string{"built", "disk"} {
		fixtures := persistFixtures(t)
		if from == "disk" {
			fixtures = reopenedFixtures(t, BackendDisk)
		}
		dir := t.TempDir()
		for kind, orig := range fixtures {
			label := kind + "/" + from

			var buf bytes.Buffer
			if _, err := EncodeIndex(&buf, orig); err != nil {
				t.Fatalf("%s: encode: %v", label, err)
			}
			decoded, err := DecodeIndex(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: decode: %v", label, err)
			}
			if decoded.Kind() != orig.Kind() {
				t.Fatalf("%s: decoded kind %q, want %q", label, decoded.Kind(), orig.Kind())
			}
			if decoded.Records() != orig.Records() || decoded.Pages() != orig.Pages() {
				t.Fatalf("%s: decoded shape %d records/%d pages, want %d/%d",
					label, decoded.Records(), decoded.Pages(), orig.Records(), orig.Pages())
			}
			expectSameAnswers(t, label+"/eager", orig, decoded, queries)

			path := filepath.Join(dir, kind+".sti")
			if err := SaveIndex(path, orig); err != nil {
				t.Fatalf("%s: save: %v", label, err)
			}
			opened, err := OpenIndex(path)
			if err != nil {
				t.Fatalf("%s: open: %v", label, err)
			}
			if opened.Kind() != orig.Kind() {
				t.Fatalf("%s: opened kind %q, want %q", label, opened.Kind(), orig.Kind())
			}
			expectSameAnswers(t, label+"/lazy", orig, opened, queries)
			if err := CloseIndex(opened); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
			if err := CloseIndex(opened); err != nil {
				t.Fatalf("%s: second close: %v", label, err)
			}
		}
	}
}

// TestDecodeIndexReadsFileInPlace decodes a container from a regular file
// whose offset sits past a prefix, since DecodeIndex reads a file in
// place from its current offset: the decode answers like the built index,
// outlives the file, and re-encodes to the same bytes, and the same file
// cut short by one byte is refused.
func TestDecodeIndexReadsFileInPlace(t *testing.T) {
	orig := persistFixtures(t)["ppr"]
	var image bytes.Buffer
	if _, err := EncodeIndex(&image, orig); err != nil {
		t.Fatal(err)
	}
	prefix := []byte("not a container")
	decode := func(image []byte) (Index, error) {
		path := filepath.Join(t.TempDir(), "prefixed.sti")
		if err := os.WriteFile(path, append(append([]byte(nil), prefix...), image...), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Seek(int64(len(prefix)), io.SeekStart); err != nil {
			t.Fatal(err)
		}
		return DecodeIndex(f)
	}
	decoded, err := decode(image.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	expectSameAnswers(t, "file", orig, decoded, persistQueries(t))
	var again bytes.Buffer
	if _, err := EncodeIndex(&again, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), image.Bytes()) {
		t.Fatal("re-encoding the index decoded from a file differs from the container")
	}
	if _, err := decode(image.Bytes()[:image.Len()-1]); err == nil {
		t.Fatal("decoded a container cut short by one byte")
	}
}

// decodeFile is the eager load of a saved container: DecodeIndex over
// the file, read in place.
func decodeFile(path string) (Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeIndex(f)
}

// TestCrossBackendBitIdentical saves every built kind and demands that
// every read of the container — the lazy window, mmap and the eager
// DecodeIndex — re-encodes to the identical image: each must present the
// same page layout, free list and allocation order.
func TestCrossBackendBitIdentical(t *testing.T) {
	for kind, a := range persistFixtures(t) {
		var abuf bytes.Buffer
		if _, err := EncodeIndex(&abuf, a); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ix.stic")
		if err := SaveIndex(path, a); err != nil {
			t.Fatal(err)
		}
		opens := map[string]func() (Index, error){
			"disk":   func() (Index, error) { return OpenIndexOptions(path, OpenOptions{Backend: BackendDisk}) },
			"mmap":   func() (Index, error) { return OpenIndexOptions(path, OpenOptions{Backend: BackendMmap}) },
			"decode": func() (Index, error) { return decodeFile(path) },
		}
		for read, open := range opens {
			ox, err := open()
			if err != nil {
				t.Fatalf("%s: %s: %v", kind, read, err)
			}
			var obuf bytes.Buffer
			if _, err := EncodeIndex(&obuf, ox); err != nil {
				t.Fatalf("%s: re-encode via %s: %v", kind, read, err)
			}
			if !bytes.Equal(abuf.Bytes(), obuf.Bytes()) {
				t.Fatalf("%s: %s re-encoded a different image (%d vs %d bytes)",
					kind, read, abuf.Len(), obuf.Len())
			}
			if err := CloseIndex(ox); err != nil {
				t.Fatalf("%s: close %s: %v", kind, read, err)
			}
		}
	}
}

// TestOpenRefusesUnknownFlavour: an open flavour that is neither disk
// nor mmap — a typo, or the retired eager "mem" — is refused by name
// instead of read through pread, and the error lists the flavours.
func TestOpenRefusesUnknownFlavour(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ppr.stic")
	if err := SaveIndex(path, persistFixtures(t)["ppr"]); err != nil {
		t.Fatal(err)
	}
	for _, flavour := range []Backend{"mmpa", "mem"} {
		ix, err := OpenIndexOptions(path, OpenOptions{Backend: flavour})
		if err == nil {
			CloseIndex(ix)
			t.Fatalf("opened a container with open flavour %q", flavour)
		}
		for _, want := range []string{`"` + string(flavour) + `"`, "disk", "mmap"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		}
	}
}

// pageReadCounter counts the page images fetched from an opened extent.
type pageReadCounter struct {
	pagefile.Store
	reads *int
}

func (c pageReadCounter) ReadPage(id pagefile.PageID, dst []byte) error {
	*c.reads++
	return c.Store.ReadPage(id, dst)
}

// TestCrossCodecBitIdentical encodes every kind as a compressed
// container and as an identity one (EncodeIdentity) and demands the
// codec be invisible above the store and the encoder deterministic
// below it: a container opened through any backend answers every query
// identically to the built index with identical cold-buffer I/O, and
// re-saving the opened container reproduces the compressed image byte
// for byte. The compressed image must also actually be smaller — node
// pages are structured, so a codec that failed to shrink them would mean
// the struct encoder silently fell back to raw.
func TestCrossCodecBitIdentical(t *testing.T) {
	queries := persistQueries(t)
	fixtures := persistFixtures(t)
	dir := t.TempDir()
	for kind, orig := range fixtures {
		var buf bytes.Buffer
		if _, err := EncodeIndex(&buf, orig); err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		identity, err := EncodeIdentity(orig)
		if err != nil {
			t.Fatalf("%s: identity encode: %v", kind, err)
		}
		images := map[string][]byte{"identity": identity, "compressed": buf.Bytes()}
		for codec, image := range images {
			path := filepath.Join(dir, kind+"-"+codec+".stic")
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, backend := range []Backend{BackendDisk, BackendMmap} {
				label := kind + "/" + codec + "/" + string(backend)
				// Opened the way a registry with a cache budget opens it: a
				// decode tier over every extent, the counter underneath.
				storeReads, extents := 0, uint32(0)
				cache := pagefile.NewSharedCache(8 << 20)
				ox, err := OpenIndexOptions(path, OpenOptions{Backend: backend, Wrap: func(s pagefile.Store) pagefile.Store {
					extents++
					return cache.WrapStore(1, extents, pageReadCounter{Store: s, reads: &storeReads}, nil)
				}})
				if err != nil {
					t.Fatalf("%s: open: %v", label, err)
				}
				expectSameAnswers(t, label, orig, ox, queries)
				// The workload has now been answered once: replaying it cold
				// is charged the paper's disk accesses as ever, but every
				// node is already decoded, so no page image moves.
				warm := storeReads
				ox.ResetBuffer()
				for _, q := range queries {
					if _, err := RunQuery(ox, q); err != nil {
						t.Fatalf("%s: warm replay: %v", label, err)
					}
				}
				if ox.IOStats().Reads == 0 {
					t.Fatalf("%s: cold replay charged no reads", label)
				}
				if storeReads != warm {
					t.Fatalf("%s: warm replay fetched %d pages from the store, want 0", label, storeReads-warm)
				}
				var re bytes.Buffer
				if _, err := EncodeIndex(&re, ox); err != nil {
					t.Fatalf("%s: re-encode: %v", label, err)
				}
				if !bytes.Equal(images["compressed"], re.Bytes()) {
					t.Fatalf("%s: re-encode produced a different image (%d vs %d bytes)",
						label, len(images["compressed"]), re.Len())
				}
				if err := CloseIndex(ox); err != nil {
					t.Fatalf("%s: close: %v", label, err)
				}
			}
		}
		if len(images["compressed"]) >= len(identity) {
			t.Errorf("%s: compressed container (%d bytes) not smaller than identity (%d bytes)",
				kind, len(images["compressed"]), len(identity))
		}
	}
}

// TestStreamSnapshotRoundTrip persists a live streaming index mid-history
// and reopens it: historical queries must answer identically, and the
// lazily reopened copy must be read-only.
func TestStreamSnapshotRoundTrip(t *testing.T) {
	objs := genObjects(t, 120, 13)
	six, err := NewStreamIndex(StreamOptions{Lambda: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		t     int64
		obj   int
		final bool
	}
	var events []ev
	for i, o := range objs {
		lt := o.Lifetime()
		for tm := lt.Start; tm < lt.End; tm++ {
			events = append(events, ev{t: tm, obj: i})
		}
		events = append(events, ev{t: lt.End, obj: i, final: true})
	}
	sortEvents := func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return events[a].final && !events[b].final
	}
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && sortEvents(j, j-1); j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	// Replay only the first 70% of history so live, still-open objects
	// are part of the persisted state.
	cut := events[len(events)*7/10].t
	for _, e := range events {
		if e.t >= cut {
			break
		}
		o := objs[e.obj]
		if e.final {
			if err := six.Finish(o.ID(), e.t); err != nil {
				t.Fatal(err)
			}
			continue
		}
		r, _ := o.At(e.t)
		if err := six.Observe(o.ID(), e.t, r); err != nil {
			t.Fatal(err)
		}
	}
	if six.Live() == 0 {
		t.Fatal("want live objects at the cut point")
	}

	path := filepath.Join(t.TempDir(), "stream.sti")
	if err := SaveIndex(path, six); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseIndex(opened)
	reopened, ok := opened.(*StreamIndex)
	if !ok {
		t.Fatalf("opened %T, want *StreamIndex", opened)
	}
	if reopened.Records() != six.Records() || reopened.Cuts() != six.Cuts() || reopened.Live() != six.Live() {
		t.Fatalf("reopened counters differ: records %d/%d cuts %d/%d live %d/%d",
			reopened.Records(), six.Records(), reopened.Cuts(), six.Cuts(), reopened.Live(), six.Live())
	}
	window := Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.7, MaxY: 0.7}
	for _, at := range []int64{0, cut / 2, cut - 1} {
		a, err := six.Snapshot(window, at)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reopened.Snapshot(window, at)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(a), sortedIDs(b)) {
			t.Fatalf("t=%d: original %d results, reopened %d", at, len(a), len(b))
		}
	}
	a, err := six.Range(window, Interval{Start: 0, End: cut})
	if err != nil {
		t.Fatal(err)
	}
	b, err := reopened.Range(window, Interval{Start: 0, End: cut})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(a), sortedIDs(b)) {
		t.Fatalf("range: original %d results, reopened %d", len(a), len(b))
	}
	// Identical cold-buffer I/O on the historical workload.
	six.ResetBuffer()
	reopened.ResetBuffer()
	if _, err := six.Snapshot(window, cut/2); err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Snapshot(window, cut/2); err != nil {
		t.Fatal(err)
	}
	if six.IOStats() != reopened.IOStats() {
		t.Fatalf("I/O differs after reopen: %+v vs %+v", six.IOStats(), reopened.IOStats())
	}
	// The lazily opened snapshot sits on a read-only store: growing the
	// history must fail cleanly, not corrupt the file.
	if err := reopened.Observe(objs[0].ID(), cut+1000, window); err == nil {
		t.Fatal("Observe succeeded on a read-only reopened snapshot")
	}
}

// TestPersistRejectsGarbage feeds the container readers malformed input:
// they must return errors — never panic, never mis-load.
func TestPersistRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	small := UnsplitRecords(genObjects(t, 20, 3))
	hr, err := BuildHR(small)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(filepath.Join(dir, "hr.sti"), hr); !errors.Is(err, errHRNotPersisted) {
		t.Fatalf("SaveIndex(hr) = %v, want the error naming the kind's removal", err)
	}
	if _, err := DecodeIndex(strings.NewReader("garbage data stream")); err == nil {
		t.Fatal("accepted garbage as a container")
	}
	garbagePath := filepath.Join(dir, "garbage.sti")
	if err := os.WriteFile(garbagePath, []byte("garbage data stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndex(garbagePath); err == nil {
		t.Fatal("opened garbage as a container")
	}
	if _, err := OpenIndex(filepath.Join(dir, "missing.sti")); err == nil {
		t.Fatal("opened a missing file")
	}

	objs := genObjects(t, 50, 23)
	records := UnsplitRecords(objs)
	ppr, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := EncodeIndex(&buf, ppr); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()

	// Truncations at every structural boundary and mid-section.
	for _, cut := range []int{0, 3, containerHeaderSize - 1, containerHeaderSize,
		containerHeaderSize + 4, len(image) / 2, len(image) - 1} {
		if _, err := DecodeIndex(bytes.NewReader(image[:cut])); err == nil {
			t.Fatalf("accepted a container truncated at %d of %d bytes", cut, len(image))
		}
		p := filepath.Join(dir, "trunc.sti")
		if err := os.WriteFile(p, image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if x, err := OpenIndex(p); err == nil {
			CloseIndex(x)
			t.Fatalf("opened a container truncated at %d of %d bytes", cut, len(image))
		}
	}

	// Unknown kind byte.
	bad := bytes.Clone(image)
	bad[8] = 42
	if _, err := DecodeIndex(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted an unknown index kind")
	}

	// Kind/extent mismatch: a retired hybrid header claims two extents but
	// a ppr image carries one.
	bad = bytes.Clone(image)
	bad[8] = 4
	if _, err := DecodeIndex(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted a hybrid header over a single-extent image")
	}

	// Unsupported container version.
	bad = bytes.Clone(image)
	bad[4] = 99
	if _, err := DecodeIndex(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted an unsupported container version")
	}

	// Absurd meta length must not pre-allocate or mis-parse.
	bad = bytes.Clone(image)
	for i := 12; i < 20; i++ {
		bad[i] = 0xff
	}
	if _, err := DecodeIndex(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted an absurd meta length")
	}
	p := filepath.Join(dir, "meta.sti")
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if x, err := OpenIndex(p); err == nil {
		CloseIndex(x)
		t.Fatal("opened a container with an absurd meta length")
	}
}

// TestSaveRefusesDecodeOnlyCodec: identity containers open but are no
// longer written, so a save naming identity — or any codec but
// compressed — fails with the decode-only error and creates no file.
func TestSaveRefusesDecodeOnlyCodec(t *testing.T) {
	ppr, err := BuildPPR(UnsplitRecords(genObjects(t, 40, 9)), PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []Codec{"identity", "gzip"} {
		path := filepath.Join(t.TempDir(), "x.sti")
		err := SaveIndexOptions(path, ppr, SaveOptions{Codec: codec})
		if !errors.Is(err, errDecodeOnlyCodec) || !strings.Contains(err.Error(), string(codec)) {
			t.Fatalf("saving with %q: %v, want the decode-only error naming it", codec, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("saving with %q left a file behind (%v)", codec, err)
		}
		if _, err := EncodeIndexOptions(io.Discard, ppr, SaveOptions{Codec: codec}); !errors.Is(err, errDecodeOnlyCodec) {
			t.Fatalf("encoding with %q: %v", codec, err)
		}
	}
	for _, codec := range []Codec{CodecDefault, CodecCompressed} {
		if err := SaveIndexOptions(filepath.Join(t.TempDir(), "x.sti"), ppr, SaveOptions{Codec: codec}); err != nil {
			t.Fatalf("saving with %q: %v", codec, err)
		}
	}
}

// TestTruncatedContainerFailsStop truncates a lazily opened container
// under the open index — a fresh compressed save, and a copy of the
// multi-page identity fixture — and a query that reaches a page past the
// new end fails with io.EOF, never answers from zero-filled pages.
// The warm case answers the query once first, so every node it reaches is
// decoded already: a pool miss over the plain store must still read the
// page, and fail on the truncated file. Each runs over the pread window
// and over the mapping; the mapping's file is cut at an OS page boundary,
// so a read past the new end touches only whole unbacked pages, which
// fault, and the fault must fail the query, not the process.
func TestTruncatedContainerFailsStop(t *testing.T) {
	ppr, err := BuildPPR(UnsplitRecords(genObjects(t, 300, 21)), PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "rstar-v2-identity.sti"))
	if err != nil {
		t.Fatal(err)
	}
	saves := map[string]func(path string) error{
		"identity":   func(path string) error { return os.WriteFile(path, fixture, 0o644) },
		"compressed": func(path string) error { return SaveIndex(path, ppr) },
	}
	all := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	span := Interval{Start: 0, End: 1 << 40}
	for codec, save := range saves {
		t.Run(codec, func(t *testing.T) {
			for _, pass := range []string{"cold", "warm"} {
				t.Run(pass, func(t *testing.T) {
					for _, backend := range []Backend{BackendDisk, BackendMmap} {
						t.Run(string(backend), func(t *testing.T) {
							path := filepath.Join(t.TempDir(), "index.sti")
							if err := save(path); err != nil {
								t.Fatal(err)
							}
							x, err := OpenIndexOptions(path, OpenOptions{Backend: backend})
							if err != nil {
								t.Fatal(err)
							}
							defer CloseIndex(x)
							if pass == "warm" {
								if _, err := x.Range(all, span); err != nil {
									t.Fatal(err)
								}
							}
							fi, err := os.Stat(path)
							if err != nil {
								t.Fatal(err)
							}
							cut := fi.Size() / 2
							if backend == BackendMmap {
								cut &^= int64(os.Getpagesize() - 1)
							}
							if err := os.Truncate(path, cut); err != nil {
								t.Fatal(err)
							}
							x.ResetBuffer()
							ids, err := x.Range(all, span)
							if !errors.Is(err, io.EOF) {
								t.Fatalf("query over a truncated container: %d ids, err %v; want io.EOF", len(ids), err)
							}
						})
					}
				})
			}
		})
	}
}

// BenchmarkContainerMeta times each kind's container meta section alone:
// encodeContainerMeta, and decodeContainerMeta of its bytes into a
// store-less index. The stream index is fed 80% of a 2 000-object
// history, so its owner table (16 B a record) outweighs its open pieces
// and its tree's meta; an ingest freeze encodes that section while it
// holds the handle's lock.
func BenchmarkContainerMeta(b *testing.B) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 2000, Horizon: 600, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	six, err := NewStreamIndex(StreamOptions{Lambda: 0.01}, 0)
	if err != nil {
		b.Fatal(err)
	}
	obs := stio.ObservationsFromObjects(objs)
	for _, o := range obs[:len(obs)*8/10] {
		if o.Final {
			err = six.Finish(o.ObjectID, o.T)
		} else {
			err = six.Observe(o.ObjectID, o.T, Rect{MinX: o.Rect.MinX, MinY: o.Rect.MinY, MaxX: o.Rect.MaxX, MaxY: o.Rect.MaxY})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	records := make([]Record, len(objs))
	for i, o := range objs {
		records[i] = (&Object{inner: o}).MBR()
	}
	ppr, err := BuildPPR(records, PPROptions{})
	if err != nil {
		b.Fatal(err)
	}
	rstar, err := BuildRStarPacked(records, RStarOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []struct {
		name string
		idx  Index
	}{{"ppr", ppr}, {"rstar", rstar}, {"stream", six}} {
		kind, meta, _, err := encodeContainerMeta(k.idx)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(k.name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(meta)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := encodeContainerMeta(k.idx); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(k.name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(meta)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeContainerMeta(kind, meta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMetaRefusals patches the tree meta of saved containers: every PPR
// root span's height set to 0 and to 2³²−1, the R*-tree's height set to
// 2³²−1 (a tree of height h has at least h pages), and the PPR-tree's
// back-references flag set to 7 (it is 0 or 1). The eager and the lazy
// open must both refuse each image.
func TestMetaRefusals(t *testing.T) {
	fixtures := persistFixtures(t)
	encode := func(x Index) []byte {
		var buf bytes.Buffer
		if _, err := EncodeIndex(&buf, x); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// A tree meta follows the container header and the owner table (and,
	// for an R*-tree, its time scale); the PPR root count sits after 68
	// bytes of magic, version, options and state, the R*-tree height after
	// 32.
	ppr := encode(fixtures["ppr"])
	owners := int(binary.LittleEndian.Uint64(ppr[containerHeaderSize:]))
	rootsAt := containerHeaderSize + 8 + 8*owners + 68
	roots := int(binary.LittleEndian.Uint32(ppr[rootsAt:]))
	flagAt := rootsAt + 4 + 24*roots
	if metaEnd := containerHeaderSize + int(binary.LittleEndian.Uint64(ppr[12:])); ppr[flagAt] != 0 || flagAt+1 != metaEnd {
		t.Fatalf("ppr meta layout: flag byte %d at %d, meta ends at %d", ppr[flagAt], flagAt, metaEnd)
	}
	heights := func(h uint32) []byte {
		image := bytes.Clone(ppr)
		for i := 0; i < roots; i++ {
			binary.LittleEndian.PutUint32(image[rootsAt+4+24*i+20:], h)
		}
		return image
	}
	flagged := bytes.Clone(ppr)
	flagged[flagAt] = 7
	rstar := encode(fixtures["rstar"])
	owners = int(binary.LittleEndian.Uint64(rstar[containerHeaderSize+8:]))
	heightAt := containerHeaderSize + 8 + 8 + 8*owners + 32
	if h := binary.LittleEndian.Uint32(rstar[heightAt:]); int(h) != fixtures["rstar"].(*RStarIndex).Tree().Height() {
		t.Fatalf("rstar meta layout: height field reads %d", h)
	}
	binary.LittleEndian.PutUint32(rstar[heightAt:], math.MaxUint32)
	dir := t.TempDir()
	for _, c := range []struct {
		name, want string
		image      []byte
	}{
		{"ppr-height-0", "root span 0 has height 0", heights(0)},
		{"ppr-height-max", "root span 0 has height 4294967295", heights(math.MaxUint32)},
		{"ppr-flag-7", "back-references flag 7", flagged},
		{"rstar-height-max", "stored height 4294967295", rstar},
	} {
		if _, err := DecodeIndex(bytes.NewReader(c.image)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: DecodeIndex: %v, want an error naming %q", c.name, err, c.want)
		}
		path := filepath.Join(dir, c.name+".sti")
		if err := os.WriteFile(path, c.image, 0o644); err != nil {
			t.Fatal(err)
		}
		x, err := OpenIndex(path)
		if err == nil {
			CloseIndex(x)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: OpenIndex: %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
