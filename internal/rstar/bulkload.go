package rstar

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"stindex/internal/geom"
	"stindex/internal/parallel"
)

// Item is one record for bulk loading: a 3D box plus an opaque reference.
type Item struct {
	Box geom.Box3
	Ref uint64
}

// BulkLoadSTR builds a packed tree with the Sort-Tile-Recursive algorithm
// (Leutenegger, Lopez, Edgington — the paper's reference [15]): records
// are tiled into vertical slabs by x, each slab into runs by y, each run
// chunked by the time axis, producing near-full leaves; upper levels are
// packed the same way over the node centers. The paper cites this family
// as the classic interval-clustering alternative and reports that packing
// "does not help substantially with datasets of moving objects" — this
// implementation lets that claim be measured (BenchmarkAblationPacking).
//
// Chunks are evenly balanced so every node (except possibly the root)
// meets the MinEntries fill invariant.
//
// The tiling sorts (center, position) keys, never the items themselves:
// one key slice as long as items serves every sort of the load, and each
// node gathers its entries from the level the keys index. The slabs,
// disjoint runs of keys after the x sort, are tiled on
// Options.Parallelism workers (0 = GOMAXPROCS); node pages are still
// written serially in tiling order, so every worker count produces a
// byte-identical tree.
func BulkLoadSTR(opts Options, items []Item) (*Tree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	workers := parallel.Workers(opts.Parallelism, len(items))
	if len(items) == 0 {
		return New(opts)
	}
	if len(items) > math.MaxInt32 {
		return nil, fmt.Errorf("rstar: bulk load of %d items, more than %d", len(items), math.MaxInt32)
	}
	for i, it := range items {
		if !it.Box.Ordered() {
			return nil, fmt.Errorf("rstar: bulk load item %d box %v: %w", i, it.Box, geom.ErrInvertedBox)
		}
	}
	t, err := New(opts)
	if err != nil {
		return nil, err
	}
	t.size = len(items)

	// Each level above the leaves is the item list of the nodes below it:
	// their bounding boxes and page ids.
	level := items
	keys := make([]centerKey, len(items))
	// Every node is written through from this one, its entries reused.
	n := &node{leaf: true}
	for height := 1; ; height++ {
		if len(level) <= opts.MaxEntries {
			// This level fits in the root.
			n.id, n.entries = t.root, n.entries[:0]
			for _, it := range level {
				n.entries = append(n.entries, entry{box: it.Box, ref: it.Ref})
			}
			if err := t.nodes.Write(n); err != nil {
				return nil, err
			}
			t.height = height
			return t, nil
		}
		groups := strTile(level, keys[:len(level)], opts.MaxEntries, workers)
		next := make([]Item, 0, len(groups))
		for _, g := range groups {
			n.id, n.entries = t.nodes.Store().Allocate(), n.entries[:0]
			for _, k := range g {
				it := &level[k.i]
				n.entries = append(n.entries, entry{box: it.Box, ref: it.Ref})
			}
			if err := t.nodes.Write(n); err != nil {
				return nil, err
			}
			next = append(next, Item{Box: n.mbr(), Ref: uint64(n.id)})
		}
		level = next
		n.leaf = false
	}
}

// centerKey is an item's place in one STR sort: its (doubled) box center
// along the sort's axis, its position before the sort, and its index in
// the level.
type centerKey struct {
	center float64
	pos, i int32
}

// sortByCenter orders keys, indexes into level, by their item's box
// center along axis, ties in their order before the call. That is the
// order sort.SliceStable gives the items under `<` on the center wherever
// no center is NaN, which needs a box from −Inf to +Inf on the axis (the
// facade's records are finite); -0 and +0 compare equal either way, and a
// NaN center sorts first here.
func sortByCenter(level []Item, keys []centerKey, axis int) {
	for j := range keys {
		b := &level[keys[j].i].Box
		keys[j].center, keys[j].pos = b.Min[axis]+b.Max[axis], int32(j)
	}
	slices.SortFunc(keys, func(a, b centerKey) int {
		if c := cmp.Compare(a.center, b.center); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
}

// strTile groups a level's items into chunks of at most capacity, tiling
// by x, then y, then the time axis, with balanced chunk sizes; keys, as
// long as level, is the scratch the sorts order, and the chunks are runs
// of it. The x sort is one serial key sort; the slabs — disjoint
// sub-slices of keys after it — are then tiled concurrently, one worker
// per slab, and their groups concatenated in slab order, which
// reproduces the serial output exactly.
func strTile(level []Item, keys []centerKey, capacity, workers int) [][]centerKey {
	for i := range keys {
		keys[i].i = int32(i)
	}
	nLeaves := (len(keys) + capacity - 1) / capacity
	// Number of slabs along each of the first two axes: the cube-ish root
	// of the leaf count.
	sx := int(math.Ceil(math.Cbrt(float64(nLeaves))))
	sortByCenter(level, keys, 0)
	slabs := balancedChunks(keys, sx)
	perSlab := make([][][]centerKey, len(slabs))
	parallel.ForEach(len(slabs), workers, func(si int) {
		slab := slabs[si]
		perSlabLeaves := (len(slab) + capacity - 1) / capacity
		sy := int(math.Ceil(math.Sqrt(float64(perSlabLeaves))))
		sortByCenter(level, slab, 1)
		var groups [][]centerKey
		for _, run := range balancedChunks(slab, sy) {
			sortByCenter(level, run, 2)
			k := (len(run) + capacity - 1) / capacity
			groups = append(groups, balancedChunks(run, k)...)
		}
		perSlab[si] = groups
	})
	var groups [][]centerKey
	for _, g := range perSlab {
		groups = append(groups, g...)
	}
	return groups
}

// balancedChunks splits a slice into k contiguous chunks whose sizes
// differ by at most one.
func balancedChunks(keys []centerKey, k int) [][]centerKey {
	if k < 1 {
		k = 1
	}
	if k > len(keys) {
		k = len(keys)
	}
	out := make([][]centerKey, 0, k)
	base := len(keys) / k
	extra := len(keys) % k
	pos := 0
	for i := 0; i < k; i++ {
		sz := base
		if i < extra {
			sz++
		}
		out = append(out, keys[pos:pos+sz])
		pos += sz
	}
	return out
}
