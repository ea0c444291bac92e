package stindex

import (
	"fmt"
)

// HybridOptions configures BuildHybrid.
type HybridOptions struct {
	PPR   PPROptions
	RStar RStarOptions
	// IntervalThreshold is the longest query duration (in instants) still
	// routed to the partially persistent tree; longer intervals go to the
	// 3D R*-tree, which reads each record once instead of walking many
	// versions. Default 50 — the longest duration in the paper's query
	// sets, where the PPR-tree still wins.
	IntervalThreshold int64
}

// HybridIndex pairs a partially persistent R-tree with a 3D R*-tree over
// the same records and routes each query to whichever structure answers
// it cheaper — the idea behind the MV3R-tree (Tao & Papadias, the paper's
// reference [25], its "best previous alternative"): timestamp and short
// interval queries hit the multi-version tree, long interval queries the
// 3D tree.
//
// The price is the combined storage of both structures; the benefit is
// uniformly good performance across query durations. The composition is
// built in memory and never saved: each component persists on its own.
type HybridIndex struct {
	ppr       *PPRIndex
	rstar     *RStarIndex
	threshold int64
}

// BuildHybrid indexes the records with both structures.
func BuildHybrid(records []Record, opts HybridOptions) (*HybridIndex, error) {
	if opts.IntervalThreshold < 0 {
		return nil, fmt.Errorf("stindex: negative interval threshold %d", opts.IntervalThreshold)
	}
	if opts.IntervalThreshold == 0 {
		opts.IntervalThreshold = 50
	}
	ppr, err := BuildPPR(records, opts.PPR)
	if err != nil {
		return nil, err
	}
	rstar, err := BuildRStar(records, opts.RStar)
	if err != nil {
		return nil, err
	}
	return &HybridIndex{ppr: ppr, rstar: rstar, threshold: opts.IntervalThreshold}, nil
}

// Snapshot implements Index: snapshots always go to the PPR-tree.
func (h *HybridIndex) Snapshot(r Rect, t int64) ([]int64, error) {
	return h.ppr.Snapshot(r, t)
}

// Range implements Index, routing by query duration.
func (h *HybridIndex) Range(r Rect, iv Interval) ([]int64, error) {
	if iv.End-iv.Start <= h.threshold {
		return h.ppr.Range(r, iv)
	}
	return h.rstar.Range(r, iv)
}

// Nearest implements Index: an instant query, so it goes to the
// PPR-tree like Snapshot does.
func (h *HybridIndex) Nearest(px, py float64, t int64, k int) ([]Neighbor, error) {
	return h.ppr.Nearest(px, py, t, k)
}

// Trajectory implements Index, routing by query duration exactly like
// Range — both components return the same answer, the threshold only
// picks the cheaper traversal.
func (h *HybridIndex) Trajectory(r Rect, iv Interval) ([]TrajectoryHit, error) {
	if iv.End-iv.Start <= h.threshold {
		return h.ppr.Trajectory(r, iv)
	}
	return h.rstar.Trajectory(r, iv)
}

// ResetBuffer implements Index.
func (h *HybridIndex) ResetBuffer() {
	h.ppr.ResetBuffer()
	h.rstar.ResetBuffer()
}

// IOStats implements Index: the sum over both structures.
func (h *HybridIndex) IOStats() IOStats {
	a, b := h.ppr.IOStats(), h.rstar.IOStats()
	return IOStats{Reads: a.Reads + b.Reads, Writes: a.Writes + b.Writes, Hits: a.Hits + b.Hits}
}

// Pages implements Index: combined footprint.
func (h *HybridIndex) Pages() int { return h.ppr.Pages() + h.rstar.Pages() }

// Bytes implements Index: combined footprint.
func (h *HybridIndex) Bytes() int64 { return h.ppr.Bytes() + h.rstar.Bytes() }

// Records implements Index.
func (h *HybridIndex) Records() int { return h.ppr.Records() }

// Kind implements Index.
func (h *HybridIndex) Kind() string { return "hybrid" }

// QueryView implements QueryViewer: views of both components sharing the
// frozen page files, each with private buffer pools.
func (h *HybridIndex) QueryView() Index {
	return &HybridIndex{
		ppr:       h.ppr.QueryView().(*PPRIndex),
		rstar:     h.rstar.QueryView().(*RStarIndex),
		threshold: h.threshold,
	}
}

// PPR exposes the timestamp-side component.
func (h *HybridIndex) PPR() *PPRIndex { return h.ppr }

// RStar exposes the long-interval component.
func (h *HybridIndex) RStar() *RStarIndex { return h.rstar }

var _ Index = (*HybridIndex)(nil)
