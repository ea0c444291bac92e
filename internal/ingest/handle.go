package ingest

import (
	"errors"
	"fmt"
	"sync"

	stx "stindex"
)

// ErrInvalid wraps every admission-validation failure (HTTP maps it to
// 400). Records are validated before they touch the journal, so replay
// can treat an apply error as corruption rather than a client mistake.
var ErrInvalid = errors.New("ingest: invalid record")

// streamState is an applied stream: the index plus the counters admission
// and recovery continue from. Live ingest (inside Handle) and journal
// recovery drive the same apply.
type streamState struct {
	ix        *stx.StreamIndex // nil until the first applied record
	opts      stx.StreamOptions
	startTime int64
	seq       uint64 // records applied
	maxT      int64  // largest applied event time (the global clock)
}

// Handle owns the mutable live stream index. One writer goroutine
// mutates it; any number of query goroutines (the views of the combined
// Live) and the freezer read it — all under one mutex, because the
// stream indexer's query path shares the tree's buffer pool with its
// write path. Each query charges its own pool traffic to its view's
// counter; what the writer and the freezer move stays out.
type Handle struct {
	mu sync.Mutex
	streamState
}

func newHandle(opts stx.StreamOptions) *Handle {
	return &Handle{streamState: streamState{opts: opts}}
}

// adopt installs recovered state.
func (h *Handle) adopt(rec *Recovered) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ix = rec.Index
	h.seq = rec.Seq
	h.maxT = rec.MaxT
	h.startTime = rec.StartTime
	if rec.EpochSet {
		h.opts.Lambda = rec.Lambda
	}
}

// state returns the admission counters.
func (h *Handle) state() (seq uint64, maxT int64, liveObjects, records int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ix != nil {
		liveObjects, records = h.ix.Live(), h.ix.Records()
	}
	return h.seq, h.maxT, liveObjects, records
}

// vstate validates a group of batches against the handle plus an overlay
// of the records validated earlier in the same group (they are not
// applied yet — apply happens only after the journal fsync). The overlay
// mirrors exactly the checks Observe/Finish/FinishAll perform, plus the
// global time discipline (non-decreasing t) the underlying partially
// persistent tree requires anyway.
type vstate struct {
	h           *Handle
	ov          map[int64]vent
	finishedAll bool
	maxT        int64
	any         bool // the stream has at least one record
}

type vent struct {
	live  bool
	lastT int64
}

// beginValidate snapshots the handle's admission state. Callers must
// hold h.mu across the whole validation phase of a group.
func (h *Handle) beginValidate() *vstate {
	return &vstate{h: h, ov: make(map[int64]vent), maxT: h.maxT, any: h.seq > 0}
}

func (v *vstate) lookup(id int64) (vent, bool) {
	if e, ok := v.ov[id]; ok {
		return e, e.live
	}
	if v.finishedAll || v.h.ix == nil {
		return vent{}, false
	}
	lastT, live := v.h.ix.LiveLastT(id)
	return vent{live: live, lastT: lastT}, live
}

// validate admits recs as a unit: either every record is coherent given
// the stream state plus everything admitted before it, or the whole
// batch is rejected (wrapping ErrInvalid) and the overlay is unchanged.
func (v *vstate) validate(recs []Record) error {
	if len(recs) == 0 {
		return fmt.Errorf("%w: empty batch", ErrInvalid)
	}
	// Stage the batch against a scratch copy so a rejection at record k
	// leaves records admitted by earlier batches intact.
	scratch := vstate{h: v.h, ov: make(map[int64]vent, len(v.ov)+len(recs)), finishedAll: v.finishedAll, maxT: v.maxT, any: v.any}
	for id, e := range v.ov {
		scratch.ov[id] = e
	}
	for i, r := range recs {
		if err := scratch.admit(r); err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrInvalid, i, err)
		}
	}
	*v = scratch
	return nil
}

func (v *vstate) admit(r Record) error {
	if v.any && r.T < v.maxT {
		return fmt.Errorf("event at t=%d after the stream reached t=%d (events must be time-ordered)", r.T, v.maxT)
	}
	switch r.Kind {
	case RecObserve:
		if !r.Rect.Valid() {
			return fmt.Errorf("invalid rect %v", r.Rect)
		}
		if e, live := v.lookup(r.ObjectID); live && r.T != e.lastT+1 {
			return fmt.Errorf("object %d observed at t=%d after t=%d (observations must be consecutive; finish the object to introduce a gap)", r.ObjectID, r.T, e.lastT)
		}
		v.ov[r.ObjectID] = vent{live: true, lastT: r.T}
	case RecFinish:
		e, live := v.lookup(r.ObjectID)
		if !live {
			return fmt.Errorf("object %d is not live", r.ObjectID)
		}
		if r.T <= e.lastT {
			return fmt.Errorf("object %d finishes at t=%d but was observed at t=%d", r.ObjectID, r.T, e.lastT)
		}
		v.ov[r.ObjectID] = vent{live: false}
	case RecFinishAll:
		if !v.any {
			return errors.New("finish-all on an empty stream")
		}
		// Every live object must have been last observed before r.T —
		// exactly the per-object Finish precondition.
		if !v.finishedAll && v.h.ix != nil {
			for _, id := range v.h.ix.LiveObjects() {
				if _, overridden := v.ov[id]; overridden {
					continue
				}
				if lastT, live := v.h.ix.LiveLastT(id); live && r.T <= lastT {
					return fmt.Errorf("finish-all at t=%d but object %d was observed at t=%d", r.T, id, lastT)
				}
			}
		}
		for id, e := range v.ov {
			if e.live && r.T <= e.lastT {
				return fmt.Errorf("finish-all at t=%d but object %d was observed at t=%d", r.T, id, e.lastT)
			}
		}
		v.ov = make(map[int64]vent)
		v.finishedAll = true
	default:
		return fmt.Errorf("unknown record kind %d", r.Kind)
	}
	if r.T > v.maxT {
		v.maxT = r.T
	}
	v.any = true
	return nil
}

// apply applies validated batches inside one write-back bracket of the
// index's tree, creating the index at the first record of a fresh stream:
// each live node is decoded and written once for the whole group. The
// caller holds whatever lock guards s and keeps it until apply returns,
// so nothing observes the open bracket. Validation (or, on recovery, the
// journal having been validated) guarantees success; an error means the
// records and the index disagree, the bracket has poisoned the tree, and
// s counts none of the group.
func (s *streamState) apply(batches [][]Record) error {
	if s.ix == nil {
		first := batches[0][0]
		if first.Kind != RecObserve {
			return fmt.Errorf("ingest: stream begins with kind %d, want observe", first.Kind)
		}
		six, err := stx.NewStreamIndex(s.opts, first.T)
		if err != nil {
			return err
		}
		s.ix = six
		s.startTime = first.T
		s.maxT = first.T
	}
	n, maxT := uint64(0), s.maxT
	err := s.ix.Tree().Batch(func() error {
		for _, recs := range batches {
			for _, r := range recs {
				var err error
				switch r.Kind {
				case RecObserve:
					err = s.ix.Observe(r.ObjectID, r.T, stx.Rect{MinX: r.Rect.MinX, MinY: r.Rect.MinY, MaxX: r.Rect.MaxX, MaxY: r.Rect.MaxY})
				case RecFinish:
					err = s.ix.Finish(r.ObjectID, r.T)
				case RecFinishAll:
					err = s.ix.FinishAll(r.T)
				default:
					err = fmt.Errorf("ingest: unknown record kind %d", r.Kind)
				}
				if err != nil {
					return fmt.Errorf("record %d of the group: %w", n, err)
				}
				n++
				if r.T > maxT {
					maxT = r.T
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.seq += n
	s.maxT = maxT
	return nil
}

// chargeQuery adds the pool traffic since before to the calling view's
// counter. Query methods defer it under h.mu, so the delta is the query's
// own and the counter is only ever written under the lock.
func (h *Handle) chargeQuery(io *stx.IOStats, before stx.IOStats) {
	*io = io.Add(h.ix.IOStats().Sub(before))
}

// Range answers an interval query over the full live history, charging
// its pool traffic to io.
func (h *Handle) Range(r stx.Rect, iv stx.Interval, io *stx.IOStats) ([]int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ix == nil {
		return nil, nil
	}
	defer h.chargeQuery(io, h.ix.IOStats())
	return h.ix.Range(r, iv)
}

// Nearest answers a kNN query over the full live history, charging its
// pool traffic to io. Arguments are validated even on an empty stream,
// so a malformed query is a client error (400), never a silent empty
// answer.
func (h *Handle) Nearest(x, y float64, t int64, k int, io *stx.IOStats) ([]stx.Neighbor, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ix == nil {
		if err := stx.ValidateKNN(x, y, k); err != nil {
			return nil, err
		}
		return nil, nil
	}
	defer h.chargeQuery(io, h.ix.IOStats())
	return h.ix.Nearest(x, y, t, k)
}

// Trajectory answers a trajectory query over the full live history,
// charging its pool traffic to io.
func (h *Handle) Trajectory(r stx.Rect, iv stx.Interval, io *stx.IOStats) ([]stx.TrajectoryHit, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ix == nil {
		return nil, nil
	}
	defer h.chargeQuery(io, h.ix.IOStats())
	return h.ix.Trajectory(r, iv)
}

// snapshot takes what a freeze needs of the live index under the lock,
// and nothing more: a snapshot of its container (the meta encoded, the
// pages shared copy-on-write) and the CURRENT fields it will cover — seq,
// clock and epoch. The caller writes and closes the snapshot after the
// lock is released. It returns nil when no record was applied beyond
// frozen, the seq the newest freeze covers.
func (h *Handle) snapshot(frozen uint64) (*stx.IndexSnapshot, currentState, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ix == nil || h.seq == 0 || h.seq == frozen {
		return nil, currentState{}, nil
	}
	snap, err := stx.SnapshotIndex(h.ix)
	if err != nil {
		return nil, currentState{}, err
	}
	return snap, currentState{Seq: h.seq, MaxT: h.maxT, StartTime: h.startTime, Lambda: h.opts.Lambda}, nil
}

// pagesBytes reports the live index's in-memory page footprint.
func (h *Handle) pagesBytes() (int, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ix == nil {
		return 0, 0
	}
	return h.ix.Pages(), h.ix.Bytes()
}

// locked runs fn under the lock the query methods charge their views'
// counters under.
func (h *Handle) locked(fn func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fn()
}

// epoch returns the stream epoch once known.
func (h *Handle) epoch() (startTime int64, lambda float64, known bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.startTime, h.opts.Lambda, h.seq > 0
}
