package stindex_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	stx "stindex"

	"stindex/internal/check"
)

// containerSeeds encodes one valid STIC container per index kind and
// page codec, plus the legacy containers under testdata (among them a
// version-1 identity container) — the corpus both fuzz targets mutate.
func containerSeeds(f *testing.F) [][]byte {
	f.Helper()
	wl, err := check.GenerateWorkload(60, 200, 19, 4)
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, kind := range check.AllKinds {
		idx, err := check.BuildKind(kind, wl, stx.BackendMemory)
		if err != nil {
			f.Fatalf("building %s: %v", kind, err)
		}
		for _, codec := range []stx.Codec{stx.CodecIdentity, stx.CodecCompressed} {
			var buf bytes.Buffer
			if _, err := stx.EncodeIndexOptions(&buf, idx, stx.SaveOptions{Codec: codec}); err != nil {
				f.Fatalf("encoding %s with %s: %v", kind, codec, err)
			}
			seeds = append(seeds, buf.Bytes())
		}
	}
	// Containers written before this codec stopped producing delta pages
	// and before hr and hybrid stopped being persisted (the decode-only
	// and refusal paths), and a version-1 container, which has a zero
	// where the codec byte sits and opens through the identity codec.
	legacy, err := filepath.Glob(filepath.Join("testdata", "*.sti"))
	if err != nil || len(legacy) == 0 {
		f.Fatalf("no legacy containers under testdata: %v", err)
	}
	for _, path := range legacy {
		image, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, image)
	}
	return seeds
}

// openMutated writes the mutated image to disk and opens it: any outcome
// is acceptable except a panic. When the open succeeds, the index must
// remain safely usable — the invariant walk and queries may report
// errors (the mutation may have corrupted structure the lazy open cannot
// see), but must never crash — and the container must close cleanly.
func openMutated(t *testing.T, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.stic")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := stx.OpenIndex(path)
	if err != nil {
		return // a clean error is a correct answer to a corrupt container
	}
	_ = check.CheckInvariants(idx)
	_, _ = idx.Snapshot(stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 100)
	_, _ = idx.Range(stx.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9},
		stx.Interval{Start: -(1 << 40), End: 1 << 40})
	if err := stx.CloseIndex(idx); err != nil {
		t.Errorf("closing opened container: %v", err)
	}
}

// FuzzOpenIndexTruncated feeds OpenIndex every prefix of a valid
// container the fuzzer finds interesting.
func FuzzOpenIndexTruncated(f *testing.F) {
	for _, seed := range containerSeeds(f) {
		f.Add(seed, uint32(len(seed)/2))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint32) {
		if len(data) > 0 {
			data = data[:int(cut)%(len(data)+1)]
		}
		openMutated(t, data)
	})
}

// FuzzOpenIndexBitFlip flips one bit of a valid container image.
func FuzzOpenIndexBitFlip(f *testing.F) {
	for _, seed := range containerSeeds(f) {
		f.Add(seed, uint32(20), uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, pos uint32, bit uint8) {
		if len(data) > 0 {
			data = append([]byte(nil), data...)
			data[int(pos)%len(data)] ^= 1 << (bit % 8)
		}
		openMutated(t, data)
	})
}
