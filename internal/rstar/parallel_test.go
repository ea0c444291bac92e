package rstar

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"stindex/internal/pagefile"
)

// TestParallelSortMatchesStableSort checks the load-bearing claim of the
// chunked sort: for any worker count it reproduces sort.SliceStable
// exactly, including tie handling (duplicate center keys keep their
// original relative order).
func TestParallelSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 100, 4097, 10000} {
		base := make([]entry, n)
		for i := range base {
			b := randBox3(rng)
			if i%3 == 0 && i > 0 {
				b = base[i-1].box // force duplicate keys on every axis
			}
			base[i] = entry{box: b, ref: uint64(i)}
		}
		for axis := 0; axis < 3; axis++ {
			want := append([]entry(nil), base...)
			sort.SliceStable(want, func(i, j int) bool {
				return want[i].box.Min[axis]+want[i].box.Max[axis] <
					want[j].box.Min[axis]+want[j].box.Max[axis]
			})
			for _, workers := range []int{2, 3, 5, runtime.NumCPU()} {
				got := append([]entry(nil), base...)
				parallelStableSort(got, axis, workers)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d axis=%d workers=%d: index %d = ref %d, want ref %d",
							n, axis, workers, i, got[i].ref, want[i].ref)
					}
				}
			}
		}
	}
}

// TestParallelBulkLoadMatchesSerial bulk-loads the same seeded item set
// with worker counts 1, 2 and NumCPU and asserts the serialized trees —
// meta section and page extent — are byte-identical: the
// determinism guarantee of the parallel pipeline.
func TestParallelBulkLoadMatchesSerial(t *testing.T) {
	image := func(tree *Tree) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := tree.WriteMeta(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := pagefile.WriteExtent(&buf, tree.Store(), pagefile.LayoutRStar); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{40, 900, 12000} {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Box: randBox3(rng), Ref: uint64(i)}
		}
		ref, err := BulkLoadSTR(Options{BufferPages: 64, Parallelism: 1}, append([]Item(nil), items...))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Validate(); err != nil {
			t.Fatalf("n=%d serial tree invalid: %v", n, err)
		}
		serial := image(ref)
		for _, workers := range []int{2, runtime.NumCPU(), 0} {
			tree, err := BulkLoadSTR(Options{BufferPages: 64, Parallelism: workers}, append([]Item(nil), items...))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, image(tree)) {
				t.Fatalf("n=%d: tree built with Parallelism=%d differs from serial build", n, workers)
			}
		}
	}
}
