package split

import (
	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

// MergeSplit is the greedy approximation of §III-A.2 (figure 8): start with
// one box per time instant and repeatedly merge the pair of consecutive
// boxes whose union increases the total volume the least, until only k+1
// boxes remain. Runs in O(n log n) using a priority queue with lazy
// invalidation. It generally produces slightly larger volumes than DPSplit
// but is orders of magnitude faster on long-lived objects.
func MergeSplit(o *trajectory.Object, k int) Result {
	cuts := mergeRun(o, k, VolumeMeasure, nil)
	return buildResult(o, cuts)
}

// MergeCurve returns, for every budget 0..maxSplits, the total volume of
// the representation MergeSplit would produce with that budget. Because the
// merge sequence is hierarchical, one O(n log n) run yields the complete
// curve. curve[l] is the volume with l splits; curve is non-increasing in l.
func MergeCurve(o *trajectory.Object, maxSplits int) []float64 {
	n := o.Len()
	k := ClampSplits(maxSplits, n)
	curve := make([]float64, maxSplits+1)
	mergeRun(o, 0, VolumeMeasure, func(splitsLeft int, totalVol float64) {
		if splitsLeft <= k {
			curve[splitsLeft] = totalVol
		}
	})
	for l := k + 1; l <= maxSplits; l++ {
		curve[l] = curve[k]
	}
	return curve
}

// mergeSeg is a live segment in the doubly linked list of boxes.
type mergeSeg struct {
	lo, hi     int // instant range [lo, hi)
	rect       geom.Rect
	vol        float64
	prev, next int // indices into the segment arena, -1 at the ends
	version    int // bumped on every change, for lazy heap invalidation
	dead       bool
}

// mergeCand is a heap entry proposing to merge segment seg with its
// successor. It is stale when either side's version changed since push.
type mergeCand struct {
	seg        int
	verA, verB int
	increase   float64
}

// mergeRun performs the merge process down to targetSplits splits (i.e.
// targetSplits+1 boxes) and returns the surviving cut positions. When
// observe is non-nil it is invoked after every state (including the
// initial all-singletons state) with the current number of splits and
// total volume, and the run continues all the way down to a single box.
// An empty object has no state to observe and no cuts.
func mergeRun(o *trajectory.Object, targetSplits int, m Measure, observe func(splits int, vol float64)) []int {
	n := o.Len()
	if n == 0 {
		return nil
	}
	targetSplits = ClampSplits(targetSplits, n)
	scratch := acquireMergeScratch(n)
	defer releaseMergeScratch(scratch)
	segs := scratch.segs
	total := 0.0
	for i := 0; i < n; i++ {
		r := o.InstantRect(i)
		segs[i] = mergeSeg{lo: i, hi: i + 1, rect: r, vol: m(r, 1), prev: i - 1, next: i + 1}
		total += segs[i].vol
	}
	segs[n-1].next = -1
	if observe != nil {
		observe(n-1, total)
	}

	for i := 0; i+1 < n; i++ {
		scratch.h = append(scratch.h, candidate(segs, i, m))
	}
	scratch.heapInit()

	live := n
	floor := targetSplits + 1
	if observe != nil {
		floor = 1
	}
	for live > floor && len(scratch.h) > 0 {
		c := scratch.heapPop()
		a := &segs[c.seg]
		if a.dead || a.next == -1 {
			continue
		}
		b := &segs[a.next]
		if c.verA != a.version || c.verB != b.version {
			continue // stale entry; a fresh one exists or will be pushed
		}
		// Merge b into a.
		union := a.rect.Union(b.rect)
		newVol := m(union, int64(b.hi-a.lo))
		total += newVol - a.vol - b.vol
		a.rect = union
		a.hi = b.hi
		a.vol = newVol
		a.version++
		b.dead = true
		a.next = b.next
		// Changing a's version invalidates the two entries that referenced
		// the old a (its own and its predecessor's); push fresh ones. b's
		// entry is discarded via the dead flag when popped.
		if b.next != -1 {
			segs[b.next].prev = c.seg
			scratch.heapPush(candidate(segs, c.seg, m))
		}
		if a.prev != -1 {
			scratch.heapPush(candidate(segs, a.prev, m))
		}
		live--
		if observe != nil {
			observe(live-1, total)
		}
		if observe == nil && live == floor {
			break
		}
	}

	cuts := make([]int, 0, live-1)
	for i := 0; i != -1 && i < n; {
		s := segs[i]
		if s.lo > 0 {
			cuts = append(cuts, s.lo)
		}
		i = s.next
	}
	return cuts
}

// candidate builds a heap entry for merging segs[i] with its successor.
func candidate(segs []mergeSeg, i int, m Measure) mergeCand {
	a := &segs[i]
	b := &segs[a.next]
	union := a.rect.Union(b.rect)
	inc := m(union, int64(b.hi-a.lo)) - a.vol - b.vol
	return mergeCand{seg: i, verA: a.version, verB: b.version, increase: inc}
}
