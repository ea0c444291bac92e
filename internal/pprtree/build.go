package pprtree

import (
	"fmt"

	"stindex/internal/geom"
)

// Record is one spatiotemporal MBR record destined for the tree: a spatial
// rectangle alive over the half-open interval, identified by Ref.
type Record struct {
	Rect     geom.Rect
	Interval geom.Interval
	Ref      uint64
}

// BuildRecords constructs a PPR-tree by replaying the records' insertions
// and deletions in chronological order — the paper's offline build ("the
// objects were first sorted by insertion time"). Records still alive at
// the end of the evolution (Interval.End == geom.Now) simply stay open.
// Within one time instant, deletions are applied before insertions so the
// alive count matches the half-open lifetime semantics at every step.
func BuildRecords(opts Options, records []Record) (*Tree, error) {
	events, start, err := Events(records)
	if err != nil {
		return nil, err
	}
	t, err := New(opts, start)
	if err != nil {
		return nil, err
	}
	if err := t.replay(records, events); err != nil {
		t.nodes.Store().Close() // the failed tree is handed to nobody
		return nil, err
	}
	return t, nil
}

// AppendRecords replays additional records into an existing tree. Every
// event must occur at or after the tree's current time (partial
// persistence: history is closed). Useful for chunked offline builds and
// for extending a reloaded index.
func (t *Tree) AppendRecords(records []Record) error {
	events, start, err := Events(records)
	if err != nil {
		return err
	}
	if len(events) > 0 && start < t.now {
		return fmt.Errorf("pprtree: appended records start at %d, before current time %d", start, t.now)
	}
	return t.replay(records, events)
}

// Event is one record's insertion or deletion at Time; Rec indexes the
// records it was made from.
type Event struct {
	Time   int64
	Insert bool
	Rec    int
}

// Events returns the records' insertions and deletions in replay order,
// the total key (time, deletions first, record index) — a record
// contributes at most one event of each kind — and the earliest time.
// The order is built by stable LSD radix passes: the pass on the insert
// flag is made while the events are laid out (deletions in record order,
// then insertions in record order), then geom.SortByTime makes one
// counting pass per byte of the span of times.
func Events(records []Record) ([]Event, int64, error) {
	if len(records) == 0 {
		return nil, 0, nil
	}
	dels := 0
	lo, hi := records[0].Interval.Start, records[0].Interval.Start
	for i, r := range records {
		if !r.Rect.Valid() {
			return nil, 0, fmt.Errorf("pprtree: record %d has invalid rect %v", i, r.Rect)
		}
		if !r.Interval.ValidInterval() {
			return nil, 0, fmt.Errorf("pprtree: record %d has empty interval %v", i, r.Interval)
		}
		lo, hi = min(lo, r.Interval.Start), max(hi, r.Interval.Start)
		if r.Interval.End != geom.Now {
			dels++
			hi = max(hi, r.Interval.End)
		}
	}
	n := dels + len(records)
	both := make([]Event, 2*n)
	events, spare := both[:n:n], both[n:]
	d := 0
	for i, r := range records {
		if r.Interval.End != geom.Now {
			events[d] = Event{Time: r.Interval.End, Insert: false, Rec: i}
			d++
		}
		events[dels+i] = Event{Time: r.Interval.Start, Insert: true, Rec: i}
	}
	return geom.SortByTime(events, spare, lo, hi, func(e *Event) int64 { return e.Time }), lo, nil
}

// replay applies the events in order inside one write-back bracket.
func (t *Tree) replay(records []Record, events []Event) error {
	return t.Batch(func() error { return Apply(t, records, events) })
}

// Updater is a tree a replay drives: the PPR-tree, or the HR-tree the
// same records are replayed into.
type Updater interface {
	Insert(rect geom.Rect, ref uint64, time int64) error
	Delete(rect geom.Rect, ref uint64, time int64) (bool, error)
}

// Apply applies the records' events (Events) to t in order.
func Apply(t Updater, records []Record, events []Event) error {
	for _, ev := range events {
		r := records[ev.Rec]
		if ev.Insert {
			if err := t.Insert(r.Rect, r.Ref, ev.Time); err != nil {
				return fmt.Errorf("pprtree: inserting record %d: %w", ev.Rec, err)
			}
			continue
		}
		ok, err := t.Delete(r.Rect, r.Ref, ev.Time)
		if err != nil {
			return fmt.Errorf("pprtree: deleting record %d: %w", ev.Rec, err)
		}
		if !ok {
			return fmt.Errorf("pprtree: record %d (ref %d) vanished before its deletion at %d",
				ev.Rec, r.Ref, ev.Time)
		}
	}
	return nil
}
