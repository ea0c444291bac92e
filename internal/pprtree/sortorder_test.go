package pprtree

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stindex/internal/geom"
)

// refRecordEvents is Events' order as a comparison sort over the
// total key (time, deletions first, record index): the reference the
// radix passes must reproduce.
func refRecordEvents(records []Record) ([]Event, int64) {
	events := make([]Event, 0, 2*len(records))
	for i, r := range records {
		events = append(events, Event{Time: r.Interval.Start, Insert: true, Rec: i})
		if r.Interval.End != geom.Now {
			events = append(events, Event{Time: r.Interval.End, Insert: false, Rec: i})
		}
	}
	slices.SortFunc(events, func(a, b Event) int {
		if a.Time != b.Time {
			return cmp.Compare(a.Time, b.Time)
		}
		if a.Insert != b.Insert {
			return cmp.Compare(btoi(a.Insert), btoi(b.Insert))
		}
		return cmp.Compare(a.Rec, b.Rec)
	})
	start := int64(0)
	if len(events) > 0 {
		start = events[0].Time
	}
	return events, start
}

func checkRecordEventsOrder(t *testing.T, name string, recs []Record) {
	t.Helper()
	got, start, err := Events(recs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, wantStart := refRecordEvents(recs)
	if !slices.Equal(got, want) {
		k := 0
		for k < len(got) && k < len(want) && got[k] == want[k] {
			k++
		}
		t.Fatalf("%s: %d events against the comparison sort's %d, first difference at %d", name, len(got), len(want), k)
	}
	if start != wantStart {
		t.Fatalf("%s: start %d, comparison sort %d", name, start, wantStart)
	}
}

// unitRecord is a record over iv with a placeholder rectangle.
func unitRecord(iv geom.Interval, ref int) Record {
	return Record{Rect: geom.Rect{MaxX: 1, MaxY: 1}, Interval: iv, Ref: uint64(ref)}
}

// TestRecordEventsOrderMatchesComparisonSort holds the radix order to the
// comparison sort: one instant, negative times, a span that needs all
// eight radix bytes, open records, and a random mix of them all.
func TestRecordEventsOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cases := map[string][]Record{"empty": nil}

	var oneInstant []Record
	for i := 0; i < 300; i++ {
		iv := geom.Interval{Start: 7, End: 8}
		if i%3 == 0 {
			iv.End = geom.Now
		}
		oneInstant = append(oneInstant, unitRecord(iv, i))
	}
	cases["one instant"] = oneInstant

	var negative []Record
	for i := 0; i < 2000; i++ {
		start := -500 + rng.Int63n(400)
		negative = append(negative, unitRecord(geom.Interval{Start: start, End: start + 1 + rng.Int63n(200)}, i))
	}
	cases["negative"] = negative

	edges := []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 255, -1 << 40, -1, 0, 1, 1 << 40, math.MaxInt64 - 256, math.MaxInt64 - 1}
	var wide []Record
	for i := 0; i < 1500; i++ {
		a, b := edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
		if a == b {
			continue
		}
		iv := geom.Interval{Start: min(a, b), End: max(a, b)}
		if rng.Intn(5) == 0 {
			iv.End = geom.Now
		}
		wide = append(wide, unitRecord(iv, i))
	}
	wide = append(wide, unitRecord(geom.Interval{Start: math.MinInt64, End: math.MaxInt64 - 1}, len(wide)))
	cases["full span"] = wide

	var open []Record
	for i := 0; i < 1000; i++ {
		open = append(open, unitRecord(geom.Interval{Start: rng.Int63n(50), End: geom.Now}, i))
	}
	cases["open"] = open

	var mixed []Record
	for _, recs := range [][]Record{oneInstant, negative, wide, open} {
		mixed = append(mixed, recs...)
	}
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	cases["mixed"] = mixed

	for name, recs := range cases {
		checkRecordEventsOrder(t, name, recs)
	}
}

// FuzzRecordEventsOrder: records whose times are base + k·step (wrapping,
// so any int64 is reachable), open when a byte's top bit says so, order
// their events as the comparison sort does.
func FuzzRecordEventsOrder(f *testing.F) {
	f.Add(int64(5), uint64(0), []byte{1, 0, 2, 0, 0x81, 0})                      // one instant
	f.Add(int64(-1000), uint64(3), []byte{10, 4, 3, 9, 0x85, 1, 10, 4})          // negative times
	f.Add(int64(math.MinInt64), uint64(1)<<56, []byte{0, 255, 127, 0, 1, 200})   // all eight bytes
	f.Add(int64(math.MaxInt64-300), uint64(2), []byte{0x80, 0, 100, 50, 5, 255}) // near MaxInt64, open
	f.Fuzz(func(t *testing.T, base int64, step uint64, data []byte) {
		var recs []Record
		for ; len(data) >= 2 && len(recs) < 1024; data = data[2:] {
			start := base + int64(uint64(data[0]&0x7f)*step)
			end := int64(geom.Now)
			if data[0]&0x80 == 0 {
				end = start + 1 + int64(uint64(data[1])*step)
			}
			if start < end {
				recs = append(recs, unitRecord(geom.Interval{Start: start, End: end}, len(recs)))
			}
		}
		checkRecordEventsOrder(t, "fuzz", recs)
	})
}

// dupEntries draws n entries whose bounds come from a handful of values,
// −0 and +0 among them, so the split's sorts meet many equal keys.
func dupEntries(rng *rand.Rand, n int) []pentry {
	vals := []float64{-1, math.Copysign(0, -1), 0, 0.25, 0.5, 1}
	pick := func() (float64, float64) {
		a, b := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
		return min(a, b), max(a, b)
	}
	es := make([]pentry, n)
	for i := range es {
		minX, maxX := pick()
		minY, maxY := pick()
		es[i] = pentry{rect: geom.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}, deleteT: geom.Now, ref: uint64(i)}
	}
	return es
}

// TestKeySplitAllocatesNothing: with the tree's scratch warm, a key split
// of a full node plus one allocates nothing — a version split allocates
// its fresh nodes and no more.
func TestKeySplitAllocatesNothing(t *testing.T) {
	tree, err := New(Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	entries := dupEntries(rand.New(rand.NewSource(4)), tree.opts.MaxEntries+1)
	m := tree.keySplitMin(len(entries))
	tree.ks.Split(entries, m, 2)
	if got := testing.AllocsPerRun(100, func() { tree.ks.Split(entries, m, 2) }); got != 0 {
		t.Fatalf("key split: %v allocs/op, want 0", got)
	}
}
