package rstar

import (
	"fmt"
	"math"

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
// The axis sorts and per-slab tiling run on Options.Parallelism workers
// (0 = GOMAXPROCS); node pages are still written serially in tiling
// order, so every worker count produces a byte-identical tree.
func BulkLoadSTR(opts Options, items []Item) (*Tree, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	workers := parallel.Workers(opts.Parallelism, len(items))
	if len(items) == 0 {
		return New(opts)
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

	entries := make([]entry, len(items))
	for i, it := range items {
		entries[i] = entry{box: it.Box, ref: it.Ref}
	}

	level := entries
	leaf := true
	height := 0
	for {
		height++
		if len(level) <= opts.MaxEntries {
			// This level fits in the root.
			root := &node{id: t.root, leaf: leaf, entries: level}
			if err := t.writeNode(root); err != nil {
				return nil, err
			}
			t.height = height
			return t, nil
		}
		groups := strTile(level, opts.MaxEntries, workers)
		next := make([]entry, 0, len(groups))
		for _, g := range groups {
			n := &node{id: t.file.Allocate(), leaf: leaf, entries: g}
			if err := t.writeNode(n); err != nil {
				return nil, err
			}
			next = append(next, entry{box: n.mbr(), ref: uint64(n.id)})
		}
		level = next
		leaf = false
	}
}

// strTile groups entries into chunks of at most capacity, tiling by x,
// then y, then the time axis, with balanced chunk sizes. The x sort uses
// all workers; the slabs — disjoint sub-slices after that sort — are then
// tiled concurrently, one worker per slab, and their groups concatenated
// in slab order, which reproduces the serial output exactly.
func strTile(entries []entry, capacity, workers int) [][]entry {
	nLeaves := (len(entries) + capacity - 1) / capacity
	// Number of slabs along each of the first two axes: the cube-ish root
	// of the leaf count.
	sx := int(math.Ceil(math.Cbrt(float64(nLeaves))))
	sortByCenter(entries, 0, workers)
	slabs := balancedChunks(entries, sx)
	perSlab := make([][][]entry, len(slabs))
	parallel.ForEach(len(slabs), workers, func(si int) {
		slab := slabs[si]
		perSlabLeaves := (len(slab) + capacity - 1) / capacity
		sy := int(math.Ceil(math.Sqrt(float64(perSlabLeaves))))
		sortByCenter(slab, 1, 1)
		var groups [][]entry
		for _, run := range balancedChunks(slab, sy) {
			sortByCenter(run, 2, 1)
			k := (len(run) + capacity - 1) / capacity
			groups = append(groups, balancedChunks(run, k)...)
		}
		perSlab[si] = groups
	})
	var groups [][]entry
	for _, g := range perSlab {
		groups = append(groups, g...)
	}
	return groups
}

// balancedChunks splits a slice into k contiguous chunks whose sizes
// differ by at most one.
func balancedChunks(entries []entry, k int) [][]entry {
	if k < 1 {
		k = 1
	}
	if k > len(entries) {
		k = len(entries)
	}
	out := make([][]entry, 0, k)
	base := len(entries) / k
	extra := len(entries) % k
	pos := 0
	for i := 0; i < k; i++ {
		sz := base
		if i < extra {
			sz++
		}
		out = append(out, entries[pos:pos+sz])
		pos += sz
	}
	return out
}
