package rstar

import (
	"math/rand"
	"testing"

	"stindex/internal/geom"
)

func randBox3(rng *rand.Rand) geom.Box3 {
	var b geom.Box3
	for d := 0; d < 3; d++ {
		lo := rng.Float64()
		b.Min[d] = lo
		b.Max[d] = lo + rng.Float64()*0.05
	}
	return b
}

type refBox struct {
	box geom.Box3
	ref uint64
}

func buildRandomTree(t *testing.T, rng *rand.Rand, n int, opts Options) (*Tree, []refBox) {
	t.Helper()
	tree, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	data := make([]refBox, 0, n)
	for i := 0; i < n; i++ {
		b := randBox3(rng)
		if err := tree.Insert(b, uint64(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		data = append(data, refBox{box: b, ref: uint64(i)})
	}
	return tree, data
}

func bruteSearch(data []refBox, q geom.Box3) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, d := range data {
		if d.box.Intersects(q) {
			out[d.ref] = true
		}
	}
	return out
}

func checkQueries(t *testing.T, tree *Tree, data []refBox, rng *rand.Rand, queries int) {
	t.Helper()
	for qi := 0; qi < queries; qi++ {
		q := randBox3(rng)
		want := bruteSearch(data, q)
		got := make(map[uint64]bool)
		err := tree.Search(q, func(_ geom.Box3, ref uint64) bool {
			if got[ref] {
				t.Fatalf("query %d: duplicate ref %d", qi, ref)
			}
			got[ref] = true
			return true
		})
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d", qi, len(got), len(want))
		}
		for ref := range want {
			if !got[ref] {
				t.Fatalf("query %d: missing ref %d", qi, ref)
			}
		}
	}
}

func TestInsertSearchSmallNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tree, data := buildRandomTree(t, rng, 2000, Options{MaxEntries: 8, BufferPages: 32})
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tree.Len() != 2000 {
		t.Fatalf("Len = %d, want 2000", tree.Len())
	}
	if tree.Height() < 3 {
		t.Fatalf("Height = %d, expected a deep tree with 8-entry nodes", tree.Height())
	}
	checkQueries(t, tree, data, rng, 50)
}

func TestInsertSearchDefaultNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tree, data := buildRandomTree(t, rng, 3000, Options{})
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	checkQueries(t, tree, data, rng, 50)
}

func TestQueryIOAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree, _ := buildRandomTree(t, rng, 3000, Options{})
	tree.Buffer().Reset()
	q := geom.Box3{Min: [3]float64{0.4, 0.4, 0.4}, Max: [3]float64{0.6, 0.6, 0.6}}
	if _, err := tree.Count(q); err != nil {
		t.Fatalf("Count: %v", err)
	}
	st := tree.Buffer().Stats()
	if st.Reads == 0 {
		t.Fatal("query performed no reads")
	}
	if st.Writes != 0 {
		t.Fatalf("query performed %d writes", st.Writes)
	}
	if st.Reads > int64(tree.Store().NumPages()) {
		t.Fatalf("query read %d pages, tree only has %d", st.Reads, tree.Store().NumPages())
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []Options{
		{MaxEntries: 2},
		{MaxEntries: 50, MinEntries: 40},
		{MaxEntries: 50, ReinsertCount: 50},
		{MaxEntries: 500, PageSize: 4096},
	}
	for i, o := range cases {
		if _, err := New(o); err == nil {
			t.Errorf("case %d: New accepted invalid options %+v", i, o)
		}
	}
}

func TestNodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := &node{id: 7, leaf: true}
	for i := 0; i < 23; i++ {
		n.entries = append(n.entries, entry{box: randBox3(rng), ref: uint64(i * 31)})
	}
	buf := n.Encode(nil)
	got, err := decodeNode(7, buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.leaf != n.leaf || len(got.entries) != len(n.entries) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, n)
	}
	for i := range n.entries {
		if got.entries[i] != n.entries[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestEmptyTreeSearch(t *testing.T) {
	tree, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := tree.Count(geom.Box3{Min: [3]float64{0, 0, 0}, Max: [3]float64{1, 1, 1}})
	if err != nil || n != 0 {
		t.Fatalf("Count on empty tree = %d, err=%v", n, err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate empty: %v", err)
	}
}

// TestSplitAllocatesOnlyGroups: with the tree's split scratch warm, an
// overflow split allocates the sibling (its node and page) and the two
// groups that become node entries — its sorts and sweeps allocate nothing.
func TestSplitAllocatesOnlyGroups(t *testing.T) {
	tree, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	entries := make([]entry, tree.opts.MaxEntries+1)
	for i := range entries {
		entries[i] = entry{box: randBox3(rng), ref: uint64(i)}
	}
	n := &node{leaf: true}
	split := func() {
		n.entries = entries
		tree.splitNode(n)
	}
	split()
	if got := testing.AllocsPerRun(100, split); got > 4 {
		t.Fatalf("splitNode: %v allocs/op, want at most 4", got)
	}
}
