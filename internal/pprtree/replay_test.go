package pprtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// treeImage is the tree's meta section followed by its page
// extent: the bytes its container holds, less the container's framing.
func treeImage(t *testing.T, tree *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tree.WriteMeta(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := pagefile.WriteExtent(&buf, tree.Store(), pagefile.LayoutPPR); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readTree is the eager load of a treeImage: ReadMeta, then the extent
// after it opened in memory and materialised into a writable File.
func readTree(t *testing.T, image []byte) *Tree {
	t.Helper()
	r := bytes.NewReader(image)
	tree, err := ReadMeta(r)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := pagefile.OpenExtent(r, r.Size()-int64(r.Len()), r.Size(), pagefile.CodecIDCompressed, pagefile.BackendDisk)
	if err != nil {
		t.Fatal(err)
	}
	file, err := pagefile.Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.AttachStore(file); err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestRecordEventsOrderIsStableOrder: Events sorts by the total key
// (time, insert, rec); that must be the order a stable sort by (time,
// insert) gives the events in record order — which replay depended on —
// also when many records share a start instant, an end instant or both,
// one's end is another's start, and some never end.
func TestRecordEventsOrderIsStableOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	recs := make([]Record, 4000)
	for i := range recs {
		start := rng.Int63n(12)
		iv := geom.Interval{Start: start, End: start + 1 + rng.Int63n(4)}
		if rng.Intn(10) == 0 {
			iv.End = geom.Now
		}
		recs[i] = Record{Rect: geom.Rect{MaxX: 1, MaxY: 1}, Interval: iv, Ref: uint64(i)}
	}
	got, start, err := Events(recs)
	if err != nil {
		t.Fatal(err)
	}
	var want []Event
	for i, r := range recs {
		want = append(want, Event{Time: r.Interval.Start, Insert: true, Rec: i})
		if r.Interval.End != geom.Now {
			want = append(want, Event{Time: r.Interval.End, Insert: false, Rec: i})
		}
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].Time != want[j].Time {
			return want[i].Time < want[j].Time
		}
		return !want[i].Insert && want[j].Insert
	})
	if !slices.Equal(got, want) {
		t.Fatal("Events order differs from the stable sort by (time, deletions first)")
	}
	if start != want[0].Time {
		t.Fatalf("start %d, want %d", start, want[0].Time)
	}
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
		if built.nodes.InBracket() {
			t.Fatal("BuildRecords left the replay table open")
		}
		if _, err := built.Validate(); err != nil {
			t.Fatal(err)
		}
		want := treeImage(t, built)

		events, start, err := Events(recs)
		if err != nil {
			t.Fatal(err)
		}
		single, err := New(opts, start)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			r := recs[ev.Rec]
			if ev.Insert {
				err = single.Insert(r.Rect, r.Ref, ev.Time)
			} else {
				_, err = single.Delete(r.Rect, r.Ref, ev.Time)
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
		if chunked.nodes.InBracket() {
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

// onlineOp is one update of an online-mode tree: an insert, the growth of
// an alive record's rectangle, or a delete.
type onlineOp struct {
	kind      byte // 'i', 'e', 'd'
	rect, add geom.Rect
	ref       uint64
	time      int64
}

// randOnlineOps is a random online history: records appear, grow a few
// times (each growth an ExpandAlive against the record's current
// rectangle) and are deleted, a third of them never.
func randOnlineOps(rng *rand.Rand, n int) []onlineOp {
	var ops []onlineOp
	alive := map[uint64]geom.Rect{}
	var refs []uint64
	time := int64(0)
	for next := uint64(0); len(ops) < n; {
		time += rng.Int63n(2)
		switch k := rng.Intn(10); {
		case k < 4 || len(refs) == 0:
			x, y := rng.Float64(), rng.Float64()
			r := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}
			ops = append(ops, onlineOp{kind: 'i', rect: r, ref: next, time: time})
			alive[next] = r
			refs = append(refs, next)
			next++
		case k < 8:
			ref := refs[rng.Intn(len(refs))]
			cur := alive[ref]
			dx, dy := (rng.Float64()-0.5)*0.02, (rng.Float64()-0.5)*0.02
			add := geom.Rect{MinX: cur.MinX + dx, MinY: cur.MinY + dy, MaxX: cur.MaxX + dx, MaxY: cur.MaxY + dy}
			ops = append(ops, onlineOp{kind: 'e', rect: cur, add: add, ref: ref, time: time})
			alive[ref] = cur.Union(add)
		default:
			i := rng.Intn(len(refs))
			ref := refs[i]
			if ref%3 == 0 {
				continue // stays alive to the end
			}
			ops = append(ops, onlineOp{kind: 'd', rect: alive[ref], ref: ref, time: time})
			refs[i] = refs[len(refs)-1]
			refs = refs[:len(refs)-1]
			delete(alive, ref)
		}
	}
	return ops
}

func (op onlineOp) apply(tree *Tree) error {
	switch op.kind {
	case 'i':
		return tree.Insert(op.rect, op.ref, op.time)
	case 'e':
		return tree.ExpandAlive(op.rect, op.ref, op.add, op.time)
	}
	ok, err := tree.Delete(op.rect, op.ref, op.time)
	if err == nil && !ok {
		err = fmt.Errorf("record %d not found for its delete", op.ref)
	}
	return err
}

// TestBatchMatchesSingleUpdates: an online-mode tree (growing records,
// back-references) fed the same updates one at a time write-through, in
// brackets of 7 and of 300, and in one bracket with a nested one inside
// serialises to the same bytes. Validate — which holds every resident
// node's running MBR and every back-reference set against the entries —
// passes in the middle of each bracket and after each flush, and no
// bracket stays open.
func TestBatchMatchesSingleUpdates(t *testing.T) {
	ops := randOnlineOps(rand.New(rand.NewSource(17)), 4000)
	build := func(group int, nest bool) []byte {
		tree, err := New(Options{MaxEntries: 10}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.EnableExpansion(); err != nil {
			t.Fatal(err)
		}
		validate := func(when string, at int) {
			if _, err := tree.Validate(); err != nil {
				t.Fatalf("group %d, %s op %d: %v", group, when, at, err)
			}
		}
		applyAll := func(ops []onlineOp, base int) error {
			for i, op := range ops {
				if err := op.apply(tree); err != nil {
					return fmt.Errorf("op %d: %w", base+i, err)
				}
				if i == len(ops)/2 && (group > 1 || (base+i)%64 == 0) {
					validate("inside the bracket at", base+i)
				}
			}
			return nil
		}
		for lo := 0; lo < len(ops); lo += group {
			hi := min(lo+group, len(ops))
			switch {
			case group == 1:
				err = applyAll(ops[lo:hi], lo)
			case nest:
				err = tree.Batch(func() error {
					mid := (lo + hi) / 2
					if err := applyAll(ops[lo:mid], lo); err != nil {
						return err
					}
					err := tree.Batch(func() error { return applyAll(ops[mid:hi], mid) })
					if !tree.nodes.InBracket() {
						t.Fatal("a nested bracket closed the outer table")
					}
					return err
				})
			default:
				err = tree.Batch(func() error { return applyAll(ops[lo:hi], lo) })
			}
			if err != nil {
				t.Fatal(err)
			}
			if tree.nodes.InBracket() {
				t.Fatal("bracket left its table open")
			}
			if group > 1 {
				validate("after the flush at", hi)
			}
		}
		validate("at the end", len(ops))
		return treeImage(t, tree)
	}
	want := build(1, false)
	for _, c := range []struct {
		group int
		nest  bool
	}{{7, false}, {300, false}, {len(ops), true}} {
		if !bytes.Equal(build(c.group, c.nest), want) {
			t.Errorf("brackets of %d updates (nested %v) built a different tree than single updates", c.group, c.nest)
		}
	}
}

// TestValidateCatchesStaleCachedState: the two checks Validate makes of
// the cached state fail when the state is wrong.
func TestValidateCatchesStaleCachedState(t *testing.T) {
	ops := randOnlineOps(rand.New(rand.NewSource(3)), 600)
	build := func() (*Tree, *pnode) {
		tree, err := New(Options{MaxEntries: 10}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.EnableExpansion(); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if err := op.apply(tree); err != nil {
				t.Fatal(err)
			}
		}
		if tree.Height() < 2 {
			t.Fatal("history too small: the root is a leaf")
		}
		root, err := tree.nodes.Read(tree.liveRoot().page)
		if err != nil {
			t.Fatal(err)
		}
		return tree, root
	}

	// A resident node whose running MBR lags an entry it holds.
	tree, _ := build()
	err := tree.Batch(func() error {
		root, err := tree.nodes.Read(tree.liveRoot().page)
		if err != nil {
			return err
		}
		root.entries[0].rect.MaxX += 1
		_, err = tree.Validate()
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "carries MBR") {
		t.Errorf("Validate over a resident node with a stale MBR returned %v", err)
	}

	tree, root := build()
	delete(tree.backRefs[pagefile.PageID(root.entries[0].ref)], root.id)
	if _, err := tree.Validate(); err == nil || !strings.Contains(err.Error(), "back-reference") {
		t.Errorf("Validate with a missing back-reference returned %v", err)
	}
}
