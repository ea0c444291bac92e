package pprtree

import (
	"cmp"
	"fmt"
	"slices"

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
	events, start, err := recordEvents(records)
	if err != nil {
		return nil, err
	}
	t, err := New(opts, start)
	if err != nil {
		return nil, err
	}
	if err := t.replay(records, events); err != nil {
		t.file.Close() // the failed tree is handed to nobody
		return nil, err
	}
	return t, nil
}

// AppendRecords replays additional records into an existing tree. Every
// event must occur at or after the tree's current time (partial
// persistence: history is closed). Useful for chunked offline builds and
// for extending a reloaded index.
func (t *Tree) AppendRecords(records []Record) error {
	events, start, err := recordEvents(records)
	if err != nil {
		return err
	}
	if len(events) > 0 && start < t.now {
		return fmt.Errorf("pprtree: appended records start at %d, before current time %d", start, t.now)
	}
	return t.replay(records, events)
}

type recordEvent struct {
	time   int64
	insert bool
	rec    int
}

func recordEvents(records []Record) ([]recordEvent, int64, error) {
	for i, r := range records {
		if !r.Rect.Valid() {
			return nil, 0, fmt.Errorf("pprtree: record %d has invalid rect %v", i, r.Rect)
		}
		if !r.Interval.ValidInterval() {
			return nil, 0, fmt.Errorf("pprtree: record %d has empty interval %v", i, r.Interval)
		}
	}
	events := make([]recordEvent, 0, 2*len(records))
	for i, r := range records {
		events = append(events, recordEvent{time: r.Interval.Start, insert: true, rec: i})
		if r.Interval.End != geom.Now {
			events = append(events, recordEvent{time: r.Interval.End, insert: false, rec: i})
		}
	}
	// (time, insert, rec) is a total key — a record contributes at most one
	// event of each kind — and is the order a stable sort by (time, insert)
	// gives the events as appended above, without a stable sort's cost.
	slices.SortFunc(events, func(a, b recordEvent) int {
		if a.time != b.time {
			return cmp.Compare(a.time, b.time)
		}
		// Deletions first within an instant.
		if a.insert != b.insert {
			return cmp.Compare(btoi(a.insert), btoi(b.insert))
		}
		return cmp.Compare(a.rec, b.rec)
	})
	start := int64(0)
	if len(events) > 0 {
		start = events[0].time
	}
	return events, start, nil
}

// replay applies the events in order inside one write-back bracket.
func (t *Tree) replay(records []Record, events []recordEvent) error {
	return t.Batch(func() error { return t.applyEvents(records, events) })
}

func (t *Tree) applyEvents(records []Record, events []recordEvent) error {
	for _, ev := range events {
		r := records[ev.rec]
		if ev.insert {
			if err := t.Insert(r.Rect, r.Ref, ev.time); err != nil {
				return fmt.Errorf("pprtree: inserting record %d: %w", ev.rec, err)
			}
			continue
		}
		ok, err := t.Delete(r.Rect, r.Ref, ev.time)
		if err != nil {
			return fmt.Errorf("pprtree: deleting record %d: %w", ev.rec, err)
		}
		if !ok {
			return fmt.Errorf("pprtree: record %d (ref %d) vanished before its deletion at %d",
				ev.rec, r.Ref, ev.time)
		}
	}
	return nil
}
