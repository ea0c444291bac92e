package stindex_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	stx "stindex"

	"stindex/internal/check"
)

// containerSeeds encodes one valid STIC container per index kind and
// page codec — the identity one through the test-side EncodeIdentity —
// plus the legacy containers under testdata (among them the identity
// fixtures) — the corpus every container fuzz target mutates.
func containerSeeds(f *testing.F) [][]byte {
	f.Helper()
	wl, err := check.GenerateWorkload(60, 200, 19, 4)
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, kind := range check.AllKinds {
		idx, err := check.BuildKind(kind, wl)
		if err != nil {
			f.Fatalf("building %s: %v", kind, err)
		}
		identity, err := stx.EncodeIdentity(idx)
		if err != nil {
			f.Fatalf("encoding %s as identity: %v", kind, err)
		}
		var buf bytes.Buffer
		if _, err := stx.EncodeIndex(&buf, idx); err != nil {
			f.Fatalf("encoding %s: %v", kind, err)
		}
		seeds = append(seeds, identity, buf.Bytes())
	}
	// Containers written before the codec stopped producing delta pages
	// and before hr and hybrid stopped being persisted (the refusal
	// paths), the identity twin of the delta one, an identity packed
	// R*-tree, and a version-1 container, which has a zero where the codec
	// byte sits and opens through the identity reader.
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

// mutatedQueries are the two queries every opened mutation answers.
var mutatedQueries = []func(stx.Index) ([]int64, error){
	func(x stx.Index) ([]int64, error) {
		return x.Snapshot(stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 100)
	},
	func(x stx.Index) ([]int64, error) {
		return x.Range(stx.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9},
			stx.Interval{Start: -(1 << 40), End: 1 << 40})
	},
}

// openMutated writes the mutated image to disk and opens it: any outcome
// is acceptable except a panic. When the open succeeds, the index must
// remain safely usable — the invariant walk and queries may report
// errors (the mutation may have corrupted structure the lazy open cannot
// see), but must never crash — and the container must close cleanly.
// The eager decode of the image in memory and of the file, read in
// place, go through one extent store, so they must agree: both refuse
// it, or both answer the queries alike.
func openMutated(t *testing.T, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.stic")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	decoded, derr := stx.DecodeIndex(bytes.NewReader(data))
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, ferr := stx.DecodeIndex(f)
	f.Close()
	if (derr == nil) != (ferr == nil) {
		t.Fatalf("decoding the image says %v, decoding the file says %v", derr, ferr)
	}
	if derr == nil {
		for qi, query := range mutatedQueries {
			a, aerr := query(decoded)
			b, berr := query(fromFile)
			if (aerr == nil) != (berr == nil) || !reflect.DeepEqual(a, b) {
				t.Fatalf("query %d: the decoded image answers %v, %v; the decoded file %v, %v", qi, a, aerr, b, berr)
			}
		}
	}
	idx, err := stx.OpenIndex(path)
	if err != nil {
		return // a clean error is a correct answer to a corrupt container
	}
	_ = check.CheckInvariants(idx)
	for _, query := range mutatedQueries {
		_, _ = query(idx)
	}
	if err := stx.CloseIndex(idx); err != nil {
		t.Errorf("closing opened container: %v", err)
	}
}

// FuzzOpenIndex opens arbitrary mutations of a valid container.
func FuzzOpenIndex(f *testing.F) {
	for _, seed := range containerSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(openMutated)
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
