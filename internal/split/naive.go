package split

import (
	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

// MergeSplitNaive is a reference implementation of the greedy merge
// heuristic that rescans all adjacent pairs on every step instead of using
// a priority queue, taking the leftmost of equally cheap pairs. O(n²)
// time. It is the baseline of the heap-vs-rescan ablation benchmark and
// validates MergeSplit — up to ties. Without ties the two perform the
// same merges (TestMergeSplitMatchesNaive, over random-walk rectangles,
// which have none). Generated motion has many: a linear piece makes
// neighbouring merges cost bit-equal increases, the heap pops equals in
// its sift order, not leftmost first, and on datagen.Random (seed 1,
// 1 500 objects) the two choose different cuts for 20% of (object,
// budget) pairs — 628 objects part ways somewhere, every time between
// pairs of exactly equal increase (TestMergeDivergesFromNaiveOnlyAtTies).
// Both are greedy merges; they are not interchangeable byte for byte.
func MergeSplitNaive(o *trajectory.Object, k int) Result {
	n := o.Len()
	k = ClampSplits(k, n)
	type seg struct {
		lo, hi int
		rect   geom.Rect
		vol    float64
	}
	segs := make([]seg, n)
	for i := 0; i < n; i++ {
		r := o.InstantRect(i)
		segs[i] = seg{lo: i, hi: i + 1, rect: r, vol: r.Area()}
	}
	for len(segs) > k+1 {
		best := -1
		bestInc := 0.0
		for i := 0; i+1 < len(segs); i++ {
			u := segs[i].rect.Union(segs[i+1].rect)
			inc := u.Area()*float64(segs[i+1].hi-segs[i].lo) - segs[i].vol - segs[i+1].vol
			if best == -1 || inc < bestInc {
				best = i
				bestInc = inc
			}
		}
		u := segs[best].rect.Union(segs[best+1].rect)
		segs[best] = seg{
			lo:   segs[best].lo,
			hi:   segs[best+1].hi,
			rect: u,
			vol:  u.Area() * float64(segs[best+1].hi-segs[best].lo),
		}
		segs = append(segs[:best+1], segs[best+2:]...)
	}
	cuts := make([]int, 0, len(segs)-1)
	for _, s := range segs[1:] {
		cuts = append(cuts, s.lo)
	}
	return buildResult(o, cuts)
}

// BruteForceSplit finds the true optimum by enumerating every way to place
// k cuts in an object of length n (C(n-1, k) combinations). Exponential;
// only usable for tiny objects in tests, where it validates DPSplit.
func BruteForceSplit(o *trajectory.Object, k int) Result {
	n := o.Len()
	k = ClampSplits(k, n)
	best := None(o)
	cuts := make([]int, k)
	var rec func(idx, from int)
	rec = func(idx, from int) {
		if idx == k {
			r := buildResult(o, append([]int{}, cuts...))
			if r.Volume < best.Volume {
				best = r
			}
			return
		}
		for c := from; c < n; c++ {
			cuts[idx] = c
			rec(idx+1, c+1)
		}
	}
	rec(0, 1)
	return best
}
