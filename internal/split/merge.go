package split

import (
	"slices"

	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

// Plan is what one pass of a single-object splitter keeps of an object:
// its whole curve, and enough to produce the splitting for any budget
// without running the splitter again. The paper's distribution algorithms
// (§III-B) assume exactly this — "the best splits ... in advance for all
// objects". A Plan does not retain its object; Result takes it back.
type Plan struct {
	// Curve[l] is the object's total measure under l splits, for every
	// meaningful budget l in [0, n-1]; non-increasing in l.
	Curve []float64
	// order[j] is the cut the j-th merge of the full greedy run removed
	// (merge plans only). The merge sequence is hierarchical: the first
	// n-1-k merges are the merges MergeSplit(o, k) performs, so the last
	// k entries are the cuts that budget keeps.
	order   []int32
	measure Measure // nil selects the volume objective
	dp      bool
}

// Planner builds the plan of one object under a measure; a nil measure
// selects the paper's §III volume objective. MergePlan and DPPlan are the
// two planners. Both are safe for concurrent calls.
type Planner func(o *trajectory.Object, m Measure) Plan

// MergePlan runs the greedy merge of §III-A.2 (figure 8) once, all the
// way down to a single box: start with one box per time instant and
// repeatedly merge the pair of consecutive boxes whose union increases
// the total measure the least. O(n log n) using a priority queue with
// lazy invalidation. It generally produces slightly larger volumes than
// the dynamic program but is orders of magnitude faster on long-lived
// objects.
func MergePlan(o *trajectory.Object, m Measure) Plan {
	n := o.Len()
	p := Plan{Curve: make([]float64, max(n, 1)), order: make([]int32, max(n-1, 0)), measure: m}
	mergeRunOrder(o, 0, m, func(splits int, total float64) { p.Curve[splits] = total }, p.order)
	return p
}

// DPPlan is the optimal O(n²k) dynamic program of §III-A.1. Only the
// curve is kept: the n×k parent table is too large to retain per object,
// so Result runs the program again for its budget.
func DPPlan(o *trajectory.Object, m Measure) Plan {
	return Plan{Curve: DPCurveMeasure(o, o.Len()-1, m), measure: m, dp: true}
}

// Result returns the splitting of o, the object the plan was built from,
// with k splits; budgets beyond o.Len()-1 are clamped. Its total equals
// Curve[k] up to summation order.
func (p Plan) Result(o *trajectory.Object, k int) Result {
	k = ClampSplits(k, o.Len())
	if p.dp {
		return DPSplitMeasure(o, k, p.measure)
	}
	cuts := make([]int, k)
	for i, c := range p.order[len(p.order)-k:] {
		cuts[i] = int(c)
	}
	slices.Sort(cuts)
	return buildResultMeasure(o, cuts, p.measure)
}

// MergeSplit is the greedy merge stopped at k+1 boxes, under the volume
// objective: what MergePlan(o, nil).Result(o, k) reads off the full run,
// computed by a run of its own. The benchmark's traced pipeline calls it
// by name and the plan's equivalence tests use it as their reference.
func MergeSplit(o *trajectory.Object, k int) Result {
	cuts := mergeRun(o, k, nil, nil)
	return buildResult(o, cuts)
}

// MergeCurve returns MergePlan's volume curve over budgets 0..maxSplits
// (the alloc.CurveFunc shape): curve[l] is the volume with l splits,
// non-increasing in l, repeating the last meaningful budget's past it.
func MergeCurve(o *trajectory.Object, maxSplits int) []float64 {
	full := MergePlan(o, nil).Curve
	curve := make([]float64, maxSplits+1)
	for l := range curve {
		curve[l] = full[min(l, len(full)-1)]
	}
	return curve
}

// mergeSeg is a live segment in the doubly linked list of boxes. Its
// indices are int32 (a plan's merge order already is), which makes a
// segment one 64-byte cache line.
type mergeSeg struct {
	lo, hi     int32 // instant range [lo, hi)
	rect       geom.Rect
	vol        float64
	prev, next int32 // indices into the segment arena, -1 at the ends
	// version is the number of the merge that last changed the segment
	// (merges count from 1; 0 is the initial singleton), for lazy heap
	// invalidation.
	version int32
	dead    bool
}

// mergeCand is a heap entry proposing to merge segment seg with its
// successor. stamp is the larger of the two sides' versions at push time.
// Versions only grow, and a merge after the push stamps a version above
// every version that existed at it, so the candidate is stale exactly
// when either side's version now exceeds stamp: when either changed
// since the push. One stamp keeps the entry at 16 bytes, so a sift moves
// less memory.
type mergeCand struct {
	increase   float64
	seg, stamp int32
}

// measure is m(r, length), with a nil m the volume objective computed in
// line: VolumeMeasure's expression, rounded as its return rounds it, so
// the bits are the same without an indirect call per candidate.
func measure(m Measure, r geom.Rect, length int64) float64 {
	if m == nil {
		return float64(r.Area() * float64(length))
	}
	return m(r, length)
}

// mergeRun performs the merge process down to targetSplits splits (i.e.
// targetSplits+1 boxes) under the measure m (nil: volume) and returns the
// surviving cut positions. When observe is non-nil it is invoked after
// every state (including the initial all-singletons state) with the
// current number of splits and total volume, and the run continues all
// the way down to a single box.
// An empty object has no state to observe and no cuts.
func mergeRun(o *trajectory.Object, targetSplits int, m Measure, observe func(splits int, vol float64)) []int {
	return mergeRunOrder(o, targetSplits, m, observe, nil)
}

// mergeRunOrder is mergeRun that also records, when order is non-nil, the
// cut each merge removes: order[j] for the j-th merge, so order needs one
// slot per merge the run performs.
func mergeRunOrder(o *trajectory.Object, targetSplits int, m Measure, observe func(splits int, vol float64), order []int32) []int {
	n := o.Len()
	if n == 0 {
		return nil
	}
	targetSplits = ClampSplits(targetSplits, n)
	scratch := acquireMergeScratch(n)
	defer releaseMergeScratch(scratch)
	segs := scratch.segs
	total := 0.0
	for i := int32(0); i < int32(n); i++ {
		r := o.InstantRect(int(i))
		segs[i] = mergeSeg{lo: i, hi: i + 1, rect: r, vol: measure(m, r, 1), prev: i - 1, next: i + 1}
		total += segs[i].vol
	}
	segs[n-1].next = -1
	if observe != nil {
		observe(n-1, total)
	}

	for i := int32(0); i+1 < int32(n); i++ {
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
		if a.version > c.stamp || b.version > c.stamp {
			continue // stale entry; a fresh one exists or will be pushed
		}
		// Merge b into a.
		if order != nil {
			order[n-live] = b.lo
		}
		union := a.rect.Union(b.rect)
		newVol := measure(m, union, int64(b.hi-a.lo))
		total += newVol - a.vol - b.vol
		a.rect = union
		a.hi = b.hi
		a.vol = newVol
		a.version = int32(n - live + 1)
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
	for i := int32(0); i != -1 && int(i) < n; {
		s := &segs[i]
		if s.lo > 0 {
			cuts = append(cuts, int(s.lo))
		}
		i = s.next
	}
	return cuts
}

// candidate builds a heap entry for merging segs[i] with its successor.
func candidate(segs []mergeSeg, i int32, m Measure) mergeCand {
	a := &segs[i]
	b := &segs[a.next]
	union := a.rect.Union(b.rect)
	inc := measure(m, union, int64(b.hi-a.lo)) - a.vol - b.vol
	return mergeCand{seg: i, stamp: max(a.version, b.version), increase: inc}
}
