package pprtree

import (
	"bytes"
	"math/rand"
	"testing"
)

func treeImage(t *testing.T, tree *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayMatchesSingleUpdates: the write-back table of a replay is an
// optimisation only. A tree built by BuildRecords, one built in chunks by
// AppendRecords, and one built by feeding the same events to the
// write-through Insert/Delete one at a time serialise to the same bytes,
// and no replay leaves its table open.
func TestReplayMatchesSingleUpdates(t *testing.T) {
	for _, opts := range []Options{{}, {MaxEntries: 10}} {
		recs := randRecords(rand.New(rand.NewSource(7)), 3000, 200)

		built, err := BuildRecords(opts, recs)
		if err != nil {
			t.Fatal(err)
		}
		if built.resident != nil {
			t.Fatal("BuildRecords left the replay table open")
		}
		if _, err := built.Validate(); err != nil {
			t.Fatal(err)
		}
		want := treeImage(t, built)

		events, start, err := recordEvents(recs)
		if err != nil {
			t.Fatal(err)
		}
		single, err := New(opts, start)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			r := recs[ev.rec]
			if ev.insert {
				err = single.Insert(r.Rect, r.Ref, ev.time)
			} else {
				_, err = single.Delete(r.Rect, r.Ref, ev.time)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(treeImage(t, single), want) {
			t.Errorf("MaxEntries %d: replayed tree differs from the tree built by single updates", opts.MaxEntries)
		}

		// Chunks: records are appended in order of start time, each chunk
		// closing only records it also opened (the rest stay open to Now),
		// so every chunk is a legal AppendRecords batch.
		var early, late []Record
		for _, r := range recs {
			if r.Interval.Start < 100 && r.Interval.End <= 100 {
				early = append(early, r)
			} else if r.Interval.Start >= 100 {
				late = append(late, r)
			}
		}
		whole, err := BuildRecords(opts, append(append([]Record{}, early...), late...))
		if err != nil {
			t.Fatal(err)
		}
		chunked, err := BuildRecords(opts, early)
		if err != nil {
			t.Fatal(err)
		}
		if err := chunked.AppendRecords(late); err != nil {
			t.Fatal(err)
		}
		if chunked.resident != nil {
			t.Fatal("AppendRecords left the replay table open")
		}
		if !bytes.Equal(treeImage(t, chunked), treeImage(t, whole)) {
			t.Errorf("MaxEntries %d: chunked build differs from the one-call build", opts.MaxEntries)
		}
	}
}

// TestBuildRecordsAllocBudget holds the offline build to a quarter of the
// allocations it made while every update re-parsed and re-wrote its path
// (35 670 allocs/op at 2 000 records, 713 302 at 30 000, measured on the
// commit before the replay table).
func TestBuildRecordsAllocBudget(t *testing.T) {
	before := map[int]float64{2000: 35670, 30000: 713302}
	for _, c := range buildBenchCases {
		recs := randRecords(rand.New(rand.NewSource(1)), c.records, c.horizon)
		got := testing.AllocsPerRun(1, func() {
			if _, err := BuildRecords(Options{}, recs); err != nil {
				t.Fatal(err)
			}
		})
		if budget := before[c.records] / 4; got > budget {
			t.Errorf("BuildRecords(%d records): %.0f allocs/op, budget %.0f", c.records, got, budget)
		}
	}
}
