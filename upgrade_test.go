package stindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stindex/internal/pagefile"
)

// The containers under testdata/ were written by the commit before the
// compressed codec stopped producing delta pages and before "hr" stopped
// being a persisted kind, and by the commit before "hybrid" did (see
// testdata/README.md); they are the input an upgraded binary meets in an
// ingest journal or a snapshot directory.

// legacyModeCounts returns how many pages of a compressed container's
// first extent were written in each STPC mode.
func legacyModeCounts(t *testing.T, image []byte) map[byte]int {
	t.Helper()
	metaLen := binary.LittleEndian.Uint64(image[12:])
	ext := image[containerHeaderSize+metaLen:]
	if string(ext[:4]) != "STPC" {
		t.Fatalf("first extent has magic %q, want STPC", ext[:4])
	}
	numPages := int(binary.LittleEndian.Uint32(ext[12:]))
	numFree := int(binary.LittleEndian.Uint32(ext[16:]))
	lens := ext[24+4*numFree:]
	payload := lens[4*numPages:]
	counts := map[byte]int{}
	for i := 0; i < numPages; i++ {
		if l := binary.LittleEndian.Uint32(lens[4*i:]); l > 0 {
			counts[payload[0]]++
			payload = payload[l:]
		}
	}
	return counts
}

// TestLegacyDeltaContainerRefused pins the retirement of the delta page
// mode on a compressed mid-history stream snapshot that holds delta
// pages: the eager reader, over the image in memory or the file in
// place, reads every page at open and fails with
// pagefile.ErrRetiredPageMode; the lazy flavours open it
// and fail with the same error on the first query that reads a delta
// page; and InspectContainer, which decodes no page, still describes it.
func TestLegacyDeltaContainerRefused(t *testing.T) {
	path := filepath.Join("testdata", "stream-delta-compressed.sti")
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const modeDelta = 0x02
	if n := legacyModeCounts(t, image)[modeDelta]; n < 1 {
		t.Fatalf("fixture holds %d delta pages, want at least one", n)
	}
	eager := map[string]func() (Index, error){
		"decode": func() (Index, error) { return DecodeIndex(bytes.NewReader(image)) },
		"file":   func() (Index, error) { return decodeFile(path) },
	}
	for label, open := range eager {
		if x, err := open(); !errors.Is(err, pagefile.ErrRetiredPageMode) {
			if err == nil {
				CloseIndex(x)
			}
			t.Fatalf("%s: open says %v, want ErrRetiredPageMode", label, err)
		}
	}
	// This query reads pages 16 and 68, the fixture's two delta pages.
	all := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	for _, backend := range []Backend{BackendDisk, BackendMmap} {
		x, err := OpenIndexOptions(path, OpenOptions{Backend: backend})
		if err != nil {
			t.Fatalf("%s: lazy open reads no page, got %v", backend, err)
		}
		if _, err := x.Range(all, Interval{Start: 0, End: 46}); !errors.Is(err, pagefile.ErrRetiredPageMode) {
			t.Fatalf("%s: query says %v, want ErrRetiredPageMode", backend, err)
		}
		if err := CloseIndex(x); err != nil {
			t.Fatalf("%s: close: %v", backend, err)
		}
	}
	info, err := InspectContainer(path)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if info.Kind != "stream" || info.Version != 2 || info.Codec != "compressed" || info.Pages != 84 {
		t.Fatalf("inspect reports %+v, want a version-2 compressed stream container of 84 pages", info)
	}
}

// EncodeIdentity writes x as an identity container: a version-2 header
// naming codec 0 and an STPF extent, spelled as the layout comments in
// persist.go and internal/pagefile/serialize.go describe them. No save
// writes identity any more; tests use it to keep the decode-only reader
// covered on fresh images of every kind.
func EncodeIdentity(x Index) ([]byte, error) {
	kind, meta, store, err := encodeContainerMeta(x)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	b := le.AppendUint32([]byte(containerMagic), containerVersion)
	b = append(b, kind, 1, pagefile.CodecIDIdentity, 0)
	b = append(le.AppendUint64(b, uint64(len(meta))), meta...)
	b = le.AppendUint32(append(b, "STPF"...), 1)
	b = le.AppendUint32(b, uint32(store.PageSize()))
	b = le.AppendUint32(b, uint32(store.NumAllocated()))
	b = le.AppendUint32(b, uint32(len(store.FreeList())))
	for _, id := range store.FreeList() {
		b = le.AppendUint32(b, uint32(id))
	}
	for i := 0; i < store.NumAllocated(); i++ {
		page := make([]byte, store.PageSize())
		if store.Check(pagefile.PageID(i)) == nil {
			if err := store.ReadPage(pagefile.PageID(i), page); err != nil {
				return nil, err
			}
		}
		b = append(b, page...)
	}
	return b, nil
}

// identityFixtures are the identity containers under testdata: a
// version-1 ppr container, a version-2 mid-history stream snapshot and a
// version-2 multi-page packed R*-tree.
var identityFixtures = []string{"ppr-v1-identity.sti", "stream-delta-identity.sti", "rstar-v2-identity.sti"}

// TestIdentityContainersOpenEveryFlavour opens the identity fixtures
// through the eager reader and every open flavour: each answers a fixed
// query list like the eager decode. Each re-saves compressed, and the
// re-saved container reopens with the fixture's meta and page images and
// answers the same queries. EncodeIdentity of the decode reproduces the
// fixture's version-2 bytes, so the test-side writer spells the format
// as the last identity writer did.
func TestIdentityContainersOpenEveryFlavour(t *testing.T) {
	window := Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9}
	queries := []Query{
		{Rect: window, Interval: Interval{Start: 5, End: 6}},
		{Rect: window, Interval: Interval{Start: 44, End: 45}},
		{Rect: window, Interval: Interval{Start: 500, End: 501}},
		{Rect: Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Interval: Interval{Start: 0, End: 1 << 20}},
		{Rect: Rect{MinX: 0.3, MinY: 0.2, MaxX: 0.7, MaxY: 0.8}, Interval: Interval{Start: 10, End: 300}},
		KNNQuery(0.5, 0.5, 20, 5),
		KNNQuery(0.1, 0.9, 400, 50),
		TrajectoryQuery(window, Interval{Start: 0, End: 1 << 20}),
	}
	sameAnswers := func(label string, want, got Index) {
		t.Helper()
		if got.Kind() != want.Kind() || got.Records() != want.Records() || got.Pages() != want.Pages() {
			t.Fatalf("%s: %s with %d records on %d pages, decode gives %s with %d on %d", label,
				got.Kind(), got.Records(), got.Pages(), want.Kind(), want.Records(), want.Pages())
		}
		for qi, q := range queries {
			a, err := RunQueryResult(want, q)
			if err != nil {
				t.Fatalf("%s: decoded query %d: %v", label, qi, err)
			}
			b, err := RunQueryResult(got, q)
			if err != nil {
				t.Fatalf("%s: query %d: %v", label, qi, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: query %d differs from the decode:\n got %+v\nwant %+v", label, qi, b, a)
			}
		}
	}
	for _, name := range identityFixtures {
		path := filepath.Join("testdata", name)
		image, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if info, err := InspectContainer(path); err != nil || info.Codec != "identity" || info.Pages < 1 {
			t.Fatalf("%s: inspect reports %+v, %v; want an identity container", name, info, err)
		}
		want, err := DecodeIndex(bytes.NewReader(image))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		v2 := bytes.Clone(image)
		binary.LittleEndian.PutUint32(v2[4:], containerVersion)
		if again, err := EncodeIdentity(want); err != nil || !bytes.Equal(again, v2) {
			t.Fatalf("%s: EncodeIdentity differs from the version-2 bytes (%v)", name, err)
		}
		pages := pageImageDigest(t, want)
		for _, backend := range []Backend{BackendDisk, BackendMmap} {
			label := name + ", " + string(backend)
			got, err := OpenIndexOptions(path, OpenOptions{Backend: backend})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameAnswers(label, want, got)
			resaved := filepath.Join(t.TempDir(), "resaved.sti")
			if err := SaveIndex(resaved, got); err != nil {
				t.Fatalf("%s: re-saving: %v", label, err)
			}
			if err := CloseIndex(got); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
			reopened, err := OpenIndexOptions(resaved, OpenOptions{Backend: backend})
			if err != nil {
				t.Fatalf("%s: reopening the compressed re-save: %v", label, err)
			}
			if info, err := InspectContainer(resaved); err != nil || info.Codec != "compressed" {
				t.Fatalf("%s: re-save inspects as %+v, %v", label, info, err)
			}
			if pageImageDigest(t, reopened) != pages {
				t.Fatalf("%s: the compressed re-save holds other meta or page images", label)
			}
			sameAnswers(label+" re-saved", want, reopened)
			if err := CloseIndex(reopened); err != nil {
				t.Fatalf("%s: close re-save: %v", label, err)
			}
		}
	}
}

// TestHRContainerRefused pins the retirement of the "hr" container kind:
// a version-2 hr container fails on the eager path and both lazy
// flavours with the error that names the kind and says it is no longer
// persisted, while InspectContainer still identifies the file.
func TestHRContainerRefused(t *testing.T) {
	path := filepath.Join("testdata", "hr-v2-compressed.sti")
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	attempts := map[string]func() (Index, error){
		"decode": func() (Index, error) { return DecodeIndex(bytes.NewReader(image)) },
		"disk":   func() (Index, error) { return OpenIndexOptions(path, OpenOptions{Backend: BackendDisk}) },
		"mmap":   func() (Index, error) { return OpenIndexOptions(path, OpenOptions{Backend: BackendMmap}) },
	}
	for label, open := range attempts {
		x, err := open()
		if err == nil {
			CloseIndex(x)
			t.Fatalf("%s: opened an hr container", label)
		}
		if !errors.Is(err, errHRNotPersisted) ||
			!strings.Contains(err.Error(), `"hr"`) || !strings.Contains(err.Error(), "no longer persisted") {
			t.Fatalf("%s: error does not name the removal: %v", label, err)
		}
	}
	info, err := InspectContainer(path)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if info.Kind != "hr" || info.Version != 2 || info.Codec != "compressed" || info.Pages == 0 {
		t.Fatalf("inspect reports %+v, want a version-2 compressed hr container", info)
	}
}

// TestHybridContainerRefused pins the retirement of the "hybrid"
// container kind, the one kind written with two page extents: a
// version-2 hybrid container fails on the eager path and both lazy
// flavours with the error that names the kind and says it is no longer
// persisted, while InspectContainer still identifies the file and counts
// the pages of both extents.
func TestHybridContainerRefused(t *testing.T) {
	path := filepath.Join("testdata", "hybrid-v2-compressed.sti")
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	attempts := map[string]func() (Index, error){
		"decode": func() (Index, error) { return DecodeIndex(bytes.NewReader(image)) },
		"disk":   func() (Index, error) { return OpenIndexOptions(path, OpenOptions{Backend: BackendDisk}) },
		"mmap":   func() (Index, error) { return OpenIndexOptions(path, OpenOptions{Backend: BackendMmap}) },
	}
	for label, open := range attempts {
		x, err := open()
		if err == nil {
			CloseIndex(x)
			t.Fatalf("%s: opened a hybrid container", label)
		}
		if !errors.Is(err, errHybridNotPersisted) ||
			!strings.Contains(err.Error(), `"hybrid"`) || !strings.Contains(err.Error(), "no longer persisted") {
			t.Fatalf("%s: error does not name the removal: %v", label, err)
		}
	}
	info, err := InspectContainer(path)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if info.Kind != "hybrid" || info.Version != 2 || info.Codec != "compressed" || info.Extents != 2 || info.Pages == 0 {
		t.Fatalf("inspect reports %+v, want a version-2 compressed hybrid container of two extents", info)
	}
}
