package ingest

import (
	"sync/atomic"

	stx "stindex"
)

// Live is the combined serving view of an ingesting stream: an immutable
// frozen container (the last published freeze) answering everything
// strictly before the freeze boundary, and the mutable live index
// answering the boundary onwards. A query interval [s, e) splits into
// [s, min(e, B)) against the frozen part and [max(s, B), e) against the
// live tail; the results merge under the same contract as the sharded
// router — union, de-duplicated, ids ascending.
//
// Soundness of the split rests on two facts. First, the live index holds
// the full history, so any piece overlapping [max(s,B), e) is found
// there. Second, the frozen image is complete and exact for instants
// < B: pieces still open at the freeze extend to at least B (admission
// enforces globally non-decreasing event time, so nothing can close
// before the clock), which makes their open-ended frozen form intersect
// a clipped query exactly when their true form does.
//
// Live is an index like any other: the published parent owns the opened
// container, and every session queries through its own QueryView — a
// Live that shares the handle and the boundary and whose frozen part is
// a private view of the container, so each view's IOStats is its own
// queries' traffic. Each freeze publishes a fresh Live under the serving
// name; the registry's refcounted hot-swap retires the old one with zero
// downtime.
type Live struct {
	handle *Handle
	// frozen answers the instants before boundary: the opened container
	// on the parent, a private view of it on a view; nil before the
	// first freeze.
	frozen stx.Index
	// owned is the container the parent closes; nil on views.
	owned    stx.Index
	boundary int64
	// liveIO is the pool traffic of this view's live-tail queries,
	// written and read under the handle's lock.
	liveIO stx.IOStats
	closed atomic.Bool
}

// NewLive combines the mutable handle with an opened frozen container
// (nil before the first freeze) whose image covers every instant up to
// boundary (exclusive). The Live owns the container.
func NewLive(h *Handle, frozen stx.Index, boundary int64) *Live {
	return &Live{handle: h, frozen: frozen, owned: frozen, boundary: boundary}
}

// Snapshot implements stx.Index.
func (l *Live) Snapshot(r stx.Rect, t int64) ([]int64, error) {
	return l.Range(r, stx.Interval{Start: t, End: t + 1})
}

// Range implements stx.Index: split at the freeze boundary, query both
// parts, merge.
func (l *Live) Range(r stx.Rect, iv stx.Interval) ([]int64, error) {
	var frozenIDs, liveIDs []int64
	if l.frozen != nil && iv.Start < l.boundary {
		end := iv.End
		if end > l.boundary {
			end = l.boundary
		}
		ids, err := l.frozen.Range(r, stx.Interval{Start: iv.Start, End: end})
		if err != nil {
			return nil, err
		}
		frozenIDs = ids
	}
	liveStart := iv.Start
	if l.frozen != nil && liveStart < l.boundary {
		liveStart = l.boundary
	}
	if liveStart < iv.End {
		ids, err := l.handle.Range(r, stx.Interval{Start: liveStart, End: iv.End}, &l.liveIO)
		if err != nil {
			return nil, err
		}
		liveIDs = ids
	}
	return stx.MergeIDs(frozenIDs, liveIDs), nil
}

// Nearest implements stx.Index against the live index alone: it holds
// the full history (the frozen image is a prefix of it), so the answer
// is exact without a boundary split. The split exists for Range as a
// frozen-side fast path; the new kinds skip it — a trajectory merge
// across the boundary would double-count pieces that span it, since the
// frozen image stores them in boundary-clipped form.
func (l *Live) Nearest(x, y float64, t int64, k int) ([]stx.Neighbor, error) {
	return l.handle.Nearest(x, y, t, k, &l.liveIO)
}

// Trajectory implements stx.Index; see Nearest for why it queries the
// live index directly.
func (l *Live) Trajectory(r stx.Rect, iv stx.Interval) ([]stx.TrajectoryHit, error) {
	return l.handle.Trajectory(r, iv, &l.liveIO)
}

// ResetBuffer implements stx.Index: it empties the frozen part's pool
// and zeroes both counters. The live tail's pool is shared with the
// ingest path and is not a per-view resource, so it stays warm.
func (l *Live) ResetBuffer() {
	if l.frozen != nil {
		l.frozen.ResetBuffer()
	}
	l.handle.locked(func() { l.liveIO = stx.IOStats{} })
}

// IOStats implements stx.Index: the frozen part's traffic plus what this
// view's live-tail queries moved through the shared pool. The ingest
// writer, the freezer and other views share that pool, and their traffic
// is not this view's: it is left out, so the delta a session takes
// around a query is the query's own.
func (l *Live) IOStats() stx.IOStats {
	var st stx.IOStats
	if l.frozen != nil {
		st = l.frozen.IOStats()
	}
	l.handle.locked(func() { st = st.Add(l.liveIO) })
	return st
}

// Pages implements stx.Index: the serving footprint of both parts.
func (l *Live) Pages() int {
	p, _ := l.handle.pagesBytes()
	if l.frozen != nil {
		p += l.frozen.Pages()
	}
	return p
}

// Bytes implements stx.Index.
func (l *Live) Bytes() int64 {
	_, b := l.handle.pagesBytes()
	if l.frozen != nil {
		b += l.frozen.Bytes()
	}
	return b
}

// Records implements stx.Index: the live index is authoritative (it
// holds the full history; the frozen part is a prefix of it).
func (l *Live) Records() int {
	_, _, _, records := l.handle.state()
	return records
}

// Kind implements stx.Index.
func (l *Live) Kind() string { return "live" }

// QueryView implements stx.Index: a Live over the same handle and
// boundary whose frozen part is a private view of the container. The
// view owns nothing, so its Close does nothing.
func (l *Live) QueryView() stx.Index {
	v := &Live{handle: l.handle, boundary: l.boundary}
	if l.frozen != nil {
		v.frozen = l.frozen.QueryView()
	}
	return v
}

// Boundary returns the freeze-boundary instant (0 before any freeze).
func (l *Live) Boundary() int64 { return l.boundary }

// Close releases the frozen container the parent owns, once; on a view
// it does nothing. The registry calls it when the snapshot generation
// retires after its last lease drains; the shared handle is owned by the
// Ingester and unaffected.
func (l *Live) Close() error {
	if l.owned == nil || !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	return stx.CloseIndex(l.owned)
}

var _ stx.Index = (*Live)(nil)
