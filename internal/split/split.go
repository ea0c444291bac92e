// Package split implements the paper's single-object splitting algorithms
// (§III-A): given a spatiotemporal object as a sequence of n per-instant
// rectangles and a budget of k artificial splits, cover the object with
// k+1 consecutive boxes of minimal total volume.
//
//   - DPPlan / DPSplit is the optimal O(n²k) dynamic program of §III-A.1.
//   - MergePlan / MergeSplit is the greedy O(n log n) bottom-up merging
//     heuristic of §III-A.2 (figure 8).
//   - Piecewise splits at the instants where the motion changes
//     characteristics, the baseline of [21] used in figures 17/18.
//
// Splits are always along the time axis only. A split at local index p
// means the boxes ...[a,p) and [p,b)... are separate records.
package split

import (
	"fmt"

	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

// Result describes one splitting of an object: the cut positions (local
// instant indices, strictly increasing, each in (0, n)), the resulting
// boxes, and their total volume.
type Result struct {
	Object *trajectory.Object
	// Cuts[i] is the local index at which box i ends and box i+1 starts.
	Cuts  []int
	Boxes []geom.Box
	// Volume is the sum of Boxes[i].Volume().
	Volume float64
}

// Splits returns the number of artificial splits the result used.
func (r Result) Splits() int { return len(r.Cuts) }

// buildResult materialises boxes from cut positions.
func buildResult(o *trajectory.Object, cuts []int) Result {
	n := o.Len()
	boxes := make([]geom.Box, 0, len(cuts)+1)
	total := 0.0
	prev := 0
	for i := 0; i <= len(cuts); i++ {
		c := n // the last box runs to the end of the lifetime
		if i < len(cuts) {
			c = cuts[i]
		}
		b := o.BoxOf(prev, c)
		boxes = append(boxes, b)
		total += b.Volume()
		prev = c
	}
	return Result{Object: o, Cuts: cuts, Boxes: boxes, Volume: total}
}

// None returns the unsplit (single MBR) representation of o.
func None(o *trajectory.Object) Result {
	return buildResult(o, nil)
}

// Piecewise splits o at every instant where its motion changed
// characteristics (polynomial segment boundaries). Objects constructed
// without segment information yield the unsplit representation.
func Piecewise(o *trajectory.Object) Result {
	return buildResult(o, o.Breakpoints())
}

// ClampSplits returns the effective number of splits for an object of
// length n: at most n-1 cuts are meaningful.
func ClampSplits(k, n int) int {
	if k > n-1 {
		k = n - 1
	}
	if k < 0 {
		k = 0
	}
	return k
}

// DPSplit is DPSplitMeasure under the paper's volume objective.
func DPSplit(o *trajectory.Object, k int) Result { return DPSplitMeasure(o, k, nil) }

// DPCurve is DPCurveMeasure under the paper's volume objective.
func DPCurve(o *trajectory.Object, maxSplits int) []float64 {
	return DPCurveMeasure(o, maxSplits, nil)
}

// Validate checks the structural invariants of a result against its object:
// cuts strictly increasing inside (0, n); boxes consecutive and covering the
// lifetime exactly; every instant rectangle contained in its box.
func (r Result) Validate() error {
	o := r.Object
	n := o.Len()
	prev := 0
	for _, c := range r.Cuts {
		if c <= prev || c >= n {
			return fmt.Errorf("split: cut %d out of order for object of length %d", c, n)
		}
		prev = c
	}
	if len(r.Boxes) != len(r.Cuts)+1 {
		return fmt.Errorf("split: %d cuts but %d boxes", len(r.Cuts), len(r.Boxes))
	}
	lo := o.Start()
	for bi, b := range r.Boxes {
		if b.Start != lo {
			return fmt.Errorf("split: box %d starts at %d, want %d", bi, b.Start, lo)
		}
		if !b.ValidInterval() {
			return fmt.Errorf("split: box %d has empty interval %v", bi, b.Interval)
		}
		for t := b.Start; t < b.End; t++ {
			if !b.Rect.Contains(o.At(t)) {
				return fmt.Errorf("split: box %d %v does not contain instant %d rect %v", bi, b, t, o.At(t))
			}
		}
		lo = b.End
	}
	if lo != o.End() {
		return fmt.Errorf("split: boxes end at %d, want %d", lo, o.End())
	}
	return nil
}
