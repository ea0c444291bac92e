// Package stream implements the on-line version of the indexing problem —
// the future work the paper's conclusion calls out. Observations (object
// positions) arrive in time order; the indexer decides split points
// without seeing the future and maintains a partially persistent R-tree
// incrementally, so historical queries are answerable at any moment.
//
// The split rule is a local volume/storage trade-off: extending the
// current lifetime piece with the next observation costs the increase of
// the piece's space-time volume, while cutting costs the observation's
// own volume plus a fixed penalty Lambda (the storage price of one more
// record). The indexer cuts whenever extending is costlier. Lambda plays
// the role of the offline algorithms' split budget: Calibrate finds the
// Lambda that meets a records-per-object target on a sample.
package stream

import (
	"fmt"
	"slices"

	"stindex/internal/geom"
	"stindex/internal/owner"
	"stindex/internal/pprtree"
)

// Options configures an Indexer.
type Options struct {
	// Lambda is the per-record penalty of the split rule. Zero is valid
	// (split at any volume regression); larger values mean fewer, looser
	// pieces. Negative is rejected.
	Lambda float64
	// Tree configures the underlying partially persistent R-tree.
	Tree pprtree.Options
}

// pieceState is the open lifetime piece of one live object.
type pieceState struct {
	ref    uint64
	rect   geom.Rect // union over the piece so far
	start  int64
	lastT  int64
	length int
}

// Indexer ingests a time-ordered stream of object observations and
// maintains a queryable historical index.
type Indexer struct {
	opts Options
	tree *pprtree.Tree
	live map[int64]*pieceState
	// owners maps the dense record references handed out so far to their
	// objects, numbered in the order they first appeared; ords numbers an
	// object id (nil after a load until the first new piece needs it).
	owners owner.Table
	ords   map[int64]uint32
	cuts   int
}

// New creates an empty streaming indexer whose history begins at
// startTime.
func New(opts Options, startTime int64) (*Indexer, error) {
	if opts.Lambda < 0 {
		return nil, fmt.Errorf("stream: negative lambda %g", opts.Lambda)
	}
	tree, err := pprtree.New(opts.Tree, startTime)
	if err != nil {
		return nil, err
	}
	if err := tree.EnableExpansion(); err != nil {
		return nil, err
	}
	return &Indexer{
		opts: opts,
		tree: tree,
		live: make(map[int64]*pieceState),
	}, nil
}

// Observe reports that object objID occupies rect at time t. Observations
// must be globally non-decreasing in t, and consecutive for each object
// (one observation per instant of its lifetime); use Finish when an
// object disappears.
func (ix *Indexer) Observe(objID, t int64, rect geom.Rect) error {
	if !rect.Valid() {
		return fmt.Errorf("stream: invalid rect %v", rect)
	}
	st, ok := ix.live[objID]
	if !ok {
		// Object appears: open its first piece.
		ref := ix.firstRef(objID)
		if err := ix.tree.Insert(rect, ref, t); err != nil {
			return err
		}
		ix.live[objID] = &pieceState{ref: ref, rect: rect, start: t, lastT: t, length: 1}
		return nil
	}
	if t != st.lastT+1 {
		return fmt.Errorf("stream: object %d observed at %d after %d; observations must be consecutive (Finish the object to introduce a gap)",
			objID, t, st.lastT)
	}

	union := st.rect.Union(rect)
	extendCost := union.Area()*float64(st.length+1) - st.rect.Area()*float64(st.length)
	cutCost := rect.Area() + ix.opts.Lambda
	if extendCost > cutCost {
		// Cut: close the open piece at t and start a fresh one.
		if err := ix.closePiece(objID, st, t); err != nil {
			return err
		}
		ref := ix.owners.Add(ix.owners.Ord[st.ref])
		if err := ix.tree.Insert(rect, ref, t); err != nil {
			return err
		}
		ix.live[objID] = &pieceState{ref: ref, rect: rect, start: t, lastT: t, length: 1}
		ix.cuts++
		return nil
	}

	// Extend: grow the open record in place.
	if union != st.rect {
		if err := ix.tree.ExpandAlive(st.rect, st.ref, rect, t); err != nil {
			return err
		}
		st.rect = union
	} else if err := ix.tree.Touch(t); err != nil {
		return err
	}
	st.lastT = t
	st.length++
	return nil
}

// Finish reports that object objID was last alive at instant t-1 (its
// lifetime ends at t, half-open). The object may reappear later with a
// fresh Observe.
func (ix *Indexer) Finish(objID, t int64) error {
	st, ok := ix.live[objID]
	if !ok {
		return fmt.Errorf("stream: object %d is not live", objID)
	}
	if t <= st.lastT {
		return fmt.Errorf("stream: object %d finishes at %d but was observed at %d", objID, t, st.lastT)
	}
	if err := ix.closePiece(objID, st, t); err != nil {
		return err
	}
	delete(ix.live, objID)
	return nil
}

// FinishAll closes every live object at time t (end of the evolution).
// Objects are closed in ascending id order, so the tree mutation sequence
// — and with it the serialized image — is deterministic for a given
// observation history (the ingestion WAL replays depend on this).
func (ix *Indexer) FinishAll(t int64) error {
	for _, id := range ix.LiveObjects() {
		if err := ix.Finish(id, t); err != nil {
			return err
		}
	}
	return nil
}

func (ix *Indexer) closePiece(objID int64, st *pieceState, t int64) error {
	ok, err := ix.tree.Delete(st.rect, st.ref, t)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("stream: open piece of object %d vanished", objID)
	}
	return nil
}

// firstRef hands out the reference of an appearing object's first piece.
// An object that appeared before keeps its ordinal, so it answers as one
// id however often it reappears.
func (ix *Indexer) firstRef(objID int64) uint64 {
	if ix.ords == nil {
		ix.ords = make(map[int64]uint32, len(ix.owners.IDs))
		for o, id := range ix.owners.IDs {
			ix.ords[id] = uint32(o)
		}
	}
	o, ok := ix.ords[objID]
	if !ok {
		o = ix.owners.NewObject(objID)
		ix.ords[objID] = o
	}
	return ix.owners.Add(o)
}

// Records returns the number of lifetime pieces created so far (closed
// and open).
func (ix *Indexer) Records() int { return ix.owners.Records() }

// Cuts returns the number of artificial splits the online rule performed.
func (ix *Indexer) Cuts() int { return ix.cuts }

// Live returns the number of currently open objects.
func (ix *Indexer) Live() int { return len(ix.live) }

// LiveLastT returns the last observed instant of objID's open piece and
// whether the object is currently live. The ingestion pipeline uses it to
// pre-validate records before they are journaled.
func (ix *Indexer) LiveLastT(objID int64) (int64, bool) {
	st, ok := ix.live[objID]
	if !ok {
		return 0, false
	}
	return st.lastT, true
}

// LiveObjects returns the ids of all currently open objects in ascending
// order.
func (ix *Indexer) LiveObjects() []int64 {
	out := make([]int64, 0, len(ix.live))
	for id := range ix.live {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Lambda returns the per-record split penalty the indexer was created
// with.
func (ix *Indexer) Lambda() float64 { return ix.opts.Lambda }

// Tree exposes the underlying partially persistent R-tree (validation,
// I/O statistics, space accounting).
func (ix *Indexer) Tree() *pprtree.Tree { return ix.tree }

// Pieces reconstructs every lifetime piece created so far: the piece's
// full interval (open pieces end at geom.Now) and its final rectangle,
// aggregated over the version copies stored in the tree. Intended for
// analysis and testing.
func (ix *Indexer) Pieces() ([]pprtree.Record, error) {
	byRef := make(map[uint64]*pprtree.Record)
	horizon := geom.Interval{Start: -1 << 62, End: geom.Now}
	all := geom.Rect{MinX: -1e18, MinY: -1e18, MaxX: 1e18, MaxY: 1e18}
	err := ix.tree.IntervalSearchRecords(all, horizon, func(rect geom.Rect, iv geom.Interval, ref uint64) bool {
		r := byRef[ref]
		if r == nil {
			byRef[ref] = &pprtree.Record{Rect: rect, Interval: iv, Ref: ref}
			return true
		}
		r.Rect = r.Rect.Union(rect)
		if iv.Start < r.Interval.Start {
			r.Interval.Start = iv.Start
		}
		if iv.End > r.Interval.End {
			r.Interval.End = iv.End
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make([]pprtree.Record, 0, len(byRef))
	for _, r := range byRef {
		out = append(out, *r)
	}
	return out, nil
}

// Owner returns the object that owns a record reference, or 0 for an
// unknown reference; OwnerRef distinguishes the two.
func (ix *Indexer) Owner(ref uint64) int64 {
	id, _ := ix.owners.Owner(ref)
	return id
}

// OwnerRef returns the object owning a record reference and whether the
// reference is known.
func (ix *Indexer) OwnerRef(ref uint64) (int64, bool) { return ix.owners.Owner(ref) }

// Owners returns the indexer's owner table, which the facade's query
// core resolves every emitted reference through. It grows in place as
// pieces are cut: its ordinals follow first appearance, so they are in id
// order only while objects appear in ascending id order.
func (ix *Indexer) Owners() *owner.Table { return &ix.owners }
