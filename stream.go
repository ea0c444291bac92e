package stindex

import (
	"fmt"

	"stindex/internal/geom"
	"stindex/internal/pprtree"
	"stindex/internal/stream"
)

// StreamOptions configures a StreamIndex.
type StreamOptions struct {
	// Lambda is the per-record storage penalty of the online split rule:
	// the current lifetime piece is cut when extending it would inflate
	// the representation volume by more than the new observation's own
	// volume plus Lambda. Zero cuts eagerly; large values approach the
	// unsplit representation. CalibrateLambda finds a value that meets a
	// records-per-object target.
	Lambda float64
	// PPR configures the underlying partially persistent R-tree.
	PPR PPROptions
}

// StreamIndex is the on-line version of the index — the future work the
// paper's conclusion calls out. Observations arrive in time order; split
// decisions are made without seeing the future; historical snapshot and
// range queries are answerable at any moment, including for still-live
// objects.
type StreamIndex struct {
	treeIndex
	ix *stream.Indexer
}

func newStreamIndex(ix *stream.Indexer) *StreamIndex {
	return &StreamIndex{
		treeIndex: treeIndex{search: ix.Tree(), owners: ix.Owners(), kind: "stream-ppr"},
		ix:        ix,
	}
}

// NewStreamIndex creates an empty streaming index whose history begins at
// startTime.
func NewStreamIndex(opts StreamOptions, startTime int64) (*StreamIndex, error) {
	ix, err := stream.New(stream.Options{
		Lambda: opts.Lambda,
		Tree: pprtree.Options{
			MaxEntries:  opts.PPR.MaxEntries,
			PSvo:        opts.PPR.PSvo,
			PSvu:        opts.PPR.PSvu,
			BufferPages: opts.PPR.BufferPages,
		},
	}, startTime)
	if err != nil {
		return nil, err
	}
	return newStreamIndex(ix), nil
}

// readOnlyErr reports ErrReadOnly when the snapshot was opened from a
// container (its store rejects writes), nil otherwise.
func (s *StreamIndex) readOnlyErr(op string) error {
	if readOnlyStore(s.ix.Tree().Store()) {
		return fmt.Errorf("stindex: %s on opened stream snapshot: %w", op, ErrReadOnly)
	}
	return nil
}

// Observe reports that object objID occupies r at time t. Observations
// must be globally non-decreasing in time and consecutive per object; use
// Finish when an object disappears (it may reappear later). On a snapshot
// opened read-only from a container, Observe fails with ErrReadOnly.
func (s *StreamIndex) Observe(objID, t int64, r Rect) error {
	if err := s.readOnlyErr("Observe"); err != nil {
		return err
	}
	return s.ix.Observe(objID, t, r.internal())
}

// Finish ends object objID's current lifetime at t (its last observation
// was at t-1). Fails with ErrReadOnly on an opened snapshot.
func (s *StreamIndex) Finish(objID, t int64) error {
	if err := s.readOnlyErr("Finish"); err != nil {
		return err
	}
	return s.ix.Finish(objID, t)
}

// FinishAll ends every live object at t. Fails with ErrReadOnly on an
// opened snapshot.
func (s *StreamIndex) FinishAll(t int64) error {
	if err := s.readOnlyErr("FinishAll"); err != nil {
		return err
	}
	return s.ix.FinishAll(t)
}

// Cuts returns how many artificial splits the online rule performed.
func (s *StreamIndex) Cuts() int { return s.ix.Cuts() }

// Live returns the number of currently open objects.
func (s *StreamIndex) Live() int { return s.ix.Live() }

// LiveLastT returns the last observed instant of objID's open piece and
// whether the object is currently live.
func (s *StreamIndex) LiveLastT(objID int64) (int64, bool) { return s.ix.LiveLastT(objID) }

// LiveObjects returns the ids of all currently open objects in ascending
// order.
func (s *StreamIndex) LiveObjects() []int64 { return s.ix.LiveObjects() }

// Lambda returns the split penalty the stream index runs with (for a
// decoded snapshot, the value recorded in its image).
func (s *StreamIndex) Lambda() float64 { return s.ix.Lambda() }

// Now returns the index's current clock: the largest instant any applied
// event carried. Recovery uses it to restart the global time discipline
// where the journal left off.
func (s *StreamIndex) Now() int64 { return s.ix.Tree().Now() }

// Tree exposes the underlying partially persistent R-tree for advanced
// inspection (validation walks, statistics).
func (s *StreamIndex) Tree() *pprtree.Tree { return s.ix.Tree() }

// PieceRecords reconstructs the lifetime pieces the online split rule has
// created so far as facade records (one per piece, ObjectID = owning
// object, open pieces ending at Now). This is the record set the stream
// index actually answers queries over — its online cuts differ from any
// offline split — so a brute-force scan of PieceRecords is the reference
// answer for differential checking.
func (s *StreamIndex) PieceRecords() ([]Record, error) {
	pieces, err := s.ix.Pieces()
	if err != nil {
		return nil, err
	}
	out := make([]Record, len(pieces))
	for i, p := range pieces {
		id, ok := s.ix.OwnerRef(p.Ref)
		if !ok {
			return nil, fmt.Errorf("stindex: stream piece ref %d has no owner (corrupt index image?)", p.Ref)
		}
		out[i] = Record{
			Rect:     fromGeomRect(p.Rect),
			Interval: Interval{Start: p.Interval.Start, End: p.Interval.End},
			ObjectID: id,
		}
	}
	return out, nil
}

// QueryView implements Index: a read-only view of the tree as it stands,
// with its own buffer pool over the shared page file and the indexer's
// owner table. Writing the stream while a view is open is a misuse, as
// for every index.
func (s *StreamIndex) QueryView() Index {
	return &StreamIndex{
		treeIndex: treeIndex{search: s.ix.Tree().QueryView(), owners: s.ix.Owners(), kind: "stream-ppr"},
		ix:        s.ix,
	}
}

// StreamIndex satisfies Index, so the measurement helpers and the
// serving layer work on it too.
var _ Index = (*StreamIndex)(nil)

// CalibrateLambda finds, by bisection on a sample of the objects, a
// Lambda for which the online split rule produces approximately
// targetRecordsPerObject lifetime pieces per object. The sample is
// replayed through the real online rule, so the calibration accounts for
// the data's actual motion patterns.
func CalibrateLambda(sample []*Object, targetRecordsPerObject float64) (float64, error) {
	if len(sample) == 0 {
		return 0, fmt.Errorf("stindex: empty calibration sample")
	}
	if targetRecordsPerObject < 1 {
		targetRecordsPerObject = 1
	}
	recordsAt := func(lambda float64) (float64, error) {
		total := 0
		for _, o := range sample {
			total += onlinePieceCount(o, lambda)
		}
		return float64(total) / float64(len(sample)), nil
	}
	lo, hi := 0.0, 1.0
	// Grow hi until it is loose enough to stop all cutting.
	for i := 0; i < 60; i++ {
		r, err := recordsAt(hi)
		if err != nil {
			return 0, err
		}
		if r <= targetRecordsPerObject {
			break
		}
		hi *= 4
	}
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		r, err := recordsAt(mid)
		if err != nil {
			return 0, err
		}
		if r > targetRecordsPerObject {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

// onlinePieceCount simulates the online split rule on one object without
// touching any index.
func onlinePieceCount(o *Object, lambda float64) int {
	pieces := 1
	var cur geom.Rect
	length := 0
	lt := o.Lifetime()
	for t := lt.Start; t < lt.End; t++ {
		r, _ := o.At(t)
		ir := r.internal()
		if length == 0 {
			cur, length = ir, 1
			continue
		}
		union := cur.Union(ir)
		extendCost := union.Area()*float64(length+1) - cur.Area()*float64(length)
		if extendCost > ir.Area()+lambda {
			pieces++
			cur, length = ir, 1
			continue
		}
		cur, length = union, length+1
	}
	return pieces
}
