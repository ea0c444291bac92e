package split

import (
	"slices"

	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

// Measure maps a box (spatial rectangle × duration) to the quantity a
// splitting algorithm minimises. The paper's §III algorithms minimise the
// space-time volume; its §IV observes that "the real objective ... is not
// to minimize the total volume itself, but to reduce the cost of
// answering a query": under Pagel's formula, a record's contribution to
// the expected accesses of uniformly placed queries of extents (qx, qy)
// is proportional to (w+qx)(h+qy) per alive instant — QueryCostMeasure.
type Measure func(r geom.Rect, length int64) float64

// VolumeMeasure is the paper's §III objective: area × duration.
func VolumeMeasure(r geom.Rect, length int64) float64 {
	return r.Area() * float64(length)
}

// QueryCostMeasure returns the §IV objective for query extents (qx, qy):
// the record's expected access mass under uniformly placed windows,
// (w+qx)(h+qy) × duration.
func QueryCostMeasure(qx, qy float64) Measure {
	return func(r geom.Rect, length int64) float64 {
		return (r.MaxX - r.MinX + qx) * (r.MaxY - r.MinY + qy) * float64(length)
	}
}

// DPSplitMeasure computes the optimal placement of k splits for o under
// the measure m (nil: the volume objective), minimising the total measure
// of the k+1 boxes (paper §III-A.1, theorem 1). Budgets larger than
// o.Len()-1 are clamped. Runs in O(n²·k) time and O(n·k) space; the
// tables come from a pooled scratch (see scratch.go), so repeated calls —
// and concurrent calls from the parallel curve builders — do not allocate.
func DPSplitMeasure(o *trajectory.Object, k int, m Measure) Result {
	n := o.Len()
	k = ClampSplits(k, n)
	if k == 0 {
		return buildResultMeasure(o, nil, m)
	}
	s := dpFill(o, k, m)
	defer releaseDPScratch(s)
	parent := s.parent
	// Walk the parent pointers back from (k, n) to recover cut positions.
	// A level above the prefix's last cut slot reads the same cell as
	// that slot's level (dpFill copies it), so l needs no clamping.
	cuts := make([]int, 0, k)
	i := n
	for l := k; l >= 1 && i > 1; l-- {
		j := int(parent[l][i])
		if j <= 0 || j >= i {
			break
		}
		cuts = append(cuts, j)
		i = j
	}
	slices.Sort(cuts)
	return buildResultMeasure(o, cuts, m)
}

// DPCurveMeasure returns the optimal total measure (nil: volume) for
// every budget 0..maxSplits: curve[l] is the total of the best l-split
// representation of o. One call costs the same as DPSplitMeasure(o,
// maxSplits, m).
func DPCurveMeasure(o *trajectory.Object, maxSplits int, m Measure) []float64 {
	n := o.Len()
	k := ClampSplits(maxSplits, n)
	s := dpFill(o, k, m)
	defer releaseDPScratch(s)
	vol := s.vol
	curve := make([]float64, maxSplits+1)
	for l := 0; l <= maxSplits; l++ {
		curve[l] = vol[min(l, k)][n]
	}
	return curve
}

// spanMeasures fills dst[j] with measure(BoxOf(j, end)) via one backward
// union sweep, the measure-generic SpanVolumes.
func spanMeasures(o *trajectory.Object, end int, m Measure, dst []float64) {
	r := geom.EmptyRect()
	for j := end - 1; j >= 0; j-- {
		r = r.Union(o.InstantRect(j))
		dst[j] = m(r, int64(end-j))
	}
}

// buildResultMeasure materialises boxes and totals them under the
// measure, so Result.Volume holds the measure total. A nil measure is the
// volume objective: the total is the boxes' space-time volume.
func buildResultMeasure(o *trajectory.Object, cuts []int, m Measure) Result {
	r := buildResult(o, cuts)
	if m == nil {
		return r
	}
	total := 0.0
	for _, b := range r.Boxes {
		total += m(b.Rect, b.Interval.Length())
	}
	r.Volume = total
	return r
}
