package rstar

import (
	"math"
	"math/rand"
	"testing"

	"stindex/internal/geom"
)

// fullChoice is the leaf-parent ChooseSubtree with every sibling's term
// summed: least overlap enlargement, then least volume enlargement, then
// least volume, first index on a full tie.
func fullChoice(n *node, b geom.Box3) int {
	best := 0
	bestOverlap, bestEnl, bestVol := 0.0, 0.0, 0.0
	for i, e := range n.entries {
		enlarged := e.box.Union(b)
		overlapDelta := 0.0
		for j, o := range n.entries {
			if j != i {
				overlapDelta += enlarged.Overlap(o.box) - e.box.Overlap(o.box)
			}
		}
		vol := e.box.Volume()
		enl := enlarged.Volume() - vol
		if i == 0 || overlapDelta < bestOverlap ||
			(overlapDelta == bestOverlap && (enl < bestEnl || (enl == bestEnl && vol < bestVol))) {
			best, bestOverlap, bestEnl, bestVol = i, overlapDelta, enl, vol
		}
	}
	return best
}

// chooseBox draws a box: uniform in the unit cube with sides up to 0.4,
// or, tie-heavy, with each bound from a few values shared by many boxes
// (signed zeros among them), so overlap sums and volumes tie often.
func chooseBox(rng *rand.Rand, ties bool) geom.Box3 {
	vals := []float64{-1, math.Copysign(0, -1), 0, 0.25, 0.5, 1}
	var b geom.Box3
	for d := 0; d < 3; d++ {
		if ties {
			lo, hi := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
			b.Min[d], b.Max[d] = min(lo, hi), max(lo, hi)
			continue
		}
		b.Min[d] = rng.Float64()
		b.Max[d] = b.Min[d] + rng.Float64()*0.4
	}
	return b
}

// TestChooseSubtreeMatchesFullSum: the pruned overlap loop picks the
// entry the full sum picks, on uniform and on tie-heavy nodes of every
// size up to a full node plus one.
func TestChooseSubtreeMatchesFullSum(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var tree Tree
	picks := map[bool]int{}
	for size := 1; size <= 51; size++ {
		for trial := 0; trial < 40; trial++ {
			ties := trial%2 == 0
			n := &node{entries: make([]entry, size)}
			for i := range n.entries {
				n.entries[i] = entry{box: chooseBox(rng, ties), ref: uint64(i)}
			}
			b := chooseBox(rng, ties)
			got, want := tree.chooseSubtree(n, b, true), fullChoice(n, b)
			if got != want {
				t.Fatalf("%d entries (ties %v), trial %d: pruned loop picks %d, the full sum %d", size, ties, trial, got, want)
			}
			if want != 0 {
				picks[ties]++
			}
		}
	}
	if picks[false] == 0 || picks[true] == 0 {
		t.Fatalf("every pick was the first entry (uniform %d, tie-heavy %d): nothing was compared", picks[false], picks[true])
	}
}
