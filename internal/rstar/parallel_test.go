package rstar

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// TestParallelSortMatchesStableSort checks the load-bearing claim of the
// STR key sort: ordering (center, position) keys reproduces
// sort.SliceStable of the items exactly, ties in their order before the
// sort, also when one sort follows another as the tiling's y and time
// sorts follow the x sort. The keys are tie-heavy: duplicate boxes, boxes
// centred on -0 and on +0 (equal under `<`), boxes that tie an earlier one
// on a single axis, and a size whose keys are all equal.
func TestParallelSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 2, 3, 100, 4097, 10000, -5000} {
		allEqual := n < 0
		if allEqual {
			n = -n
		}
		items := make([]Item, n)
		for i := range items {
			b := randBox3(rng)
			switch {
			case allEqual:
				b = geom.Box3{Max: [3]float64{1, 1, 1}}
			case i%3 == 0 && i > 0:
				b = items[i-1].Box // duplicate keys on every axis
			case i%5 == 1:
				b = geom.Box3{Min: [3]float64{negZero, negZero, negZero}, Max: [3]float64{negZero, negZero, negZero}}
			case i%5 == 2:
				b = geom.Box3{} // center +0 against the -0 above
			case i%5 == 3 && i > 3:
				// Tie an earlier item on one axis only, so a chained sort's
				// ties follow the sort before it, not the input order.
				e := items[rng.Intn(i)].Box
				axis := rng.Intn(3)
				b.Min[axis], b.Max[axis] = e.Min[axis], e.Max[axis]
			}
			items[i] = Item{Box: b, Ref: uint64(i)}
		}
		for _, axes := range [][]int{{0}, {1}, {2}, {0, 1, 2}, {2, 0}} {
			want := append([]Item(nil), items...)
			keys := make([]centerKey, n)
			for i := range keys {
				keys[i].i = int32(i)
			}
			for _, axis := range axes {
				sort.SliceStable(want, func(i, j int) bool {
					return want[i].Box.Min[axis]+want[i].Box.Max[axis] <
						want[j].Box.Min[axis]+want[j].Box.Max[axis]
				})
				sortByCenter(items, keys, axis)
			}
			for j, k := range keys {
				if got := items[k.i].Ref; got != want[j].Ref {
					t.Fatalf("n=%d all-equal=%v axes=%v: index %d = ref %d, want ref %d",
						n, allEqual, axes, j, got, want[j].Ref)
				}
			}
		}
	}
}

// TestSortByCenterAllocatesNothing holds the STR sort to its scratch: a
// key sort over a warm key slice makes no allocation, so the sorts of a
// bulk load cost the one key slice BulkLoadSTR makes. The allocs/op of
// BenchmarkBulkLoadSTRParallel cannot hold this: one allocation per sort
// adds some 170 to its 3 000 or so, inside the bench gate's 25% slack.
func TestSortByCenterAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	items := make([]Item, 5000)
	keys := make([]centerKey, len(items))
	for i := range items {
		items[i] = Item{Box: randBox3(rng), Ref: uint64(i)}
		keys[i].i = int32(i)
	}
	axis := 0
	sortNext := func() {
		sortByCenter(items, keys, axis)
		axis = (axis + 1) % 3
	}
	if got := testing.AllocsPerRun(20, sortNext); got != 0 {
		t.Fatalf("sortByCenter: %v allocs/op, want 0", got)
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
