package pprtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// applyOne applies one replay event the way Apply does.
func applyOne(t *testing.T, tree *Tree, recs []Record, ev Event) {
	t.Helper()
	r := recs[ev.Rec]
	if ev.Insert {
		if err := tree.Insert(r.Rect, r.Ref, ev.Time); err != nil {
			t.Fatal(err)
		}
		return
	}
	if ok, err := tree.Delete(r.Rect, r.Ref, ev.Time); err != nil || !ok {
		t.Fatalf("deleting record %d (ref %d) at %d: found %v, %v", ev.Rec, r.Ref, ev.Time, ok, err)
	}
}

// writeThrough builds the records' tree one update at a time outside any
// bracket — no resident table, no locator — and returns it.
func writeThrough(t *testing.T, opts Options, recs []Record) *Tree {
	t.Helper()
	events, start, err := Events(recs)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(opts, start)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		applyOne(t, tree, recs, ev)
	}
	return tree
}

// withTwins appends, for every step-th record, a second record of the
// same rectangle and ref that starts while the first is alive and ends
// after it: two alive copies the search can only tell apart by where it
// meets them.
func withTwins(recs []Record, step int, horizon int64) []Record {
	out := slices.Clone(recs)
	for i := 0; i < len(recs); i += step {
		r := recs[i]
		if r.Interval.Length() < 3 {
			continue
		}
		r.Interval.Start += r.Interval.Length() / 2
		r.Interval.End = min(r.Interval.End+7, horizon+7)
		out = append(out, r)
	}
	return out
}

// TestLocatorPicksTheSearchsEntry: all through an offline replay's
// bracket the locator is complete — Validate holds it against the live
// tree — and for every alive record it returns the very path and slot
// the depth-first search returns.
func TestLocatorPicksTheSearchsEntry(t *testing.T) {
	for _, opts := range []Options{{}, {MaxEntries: 10}} {
		recs := randRecords(rand.New(rand.NewSource(22)), 4000, 200)
		events, start, err := Events(recs)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := New(opts, start)
		if err != nil {
			t.Fatal(err)
		}
		alive := map[int]bool{}
		located, height := 0, 0
		err = tree.Batch(func() error {
			if !tree.nodes.InBracket() || tree.located == nil {
				t.Fatal("a bracket opened on an empty tree keeps no locator")
			}
			for i, ev := range events {
				applyOne(t, tree, recs, ev)
				if alive[ev.Rec] = ev.Insert; !ev.Insert {
					delete(alive, ev.Rec)
				}
				height = max(height, tree.Height())
				if i%61 != 0 {
					continue
				}
				for rec := range alive {
					r := recs[rec]
					path, idx := tree.locateAliveRecord(r.Rect, r.Ref)
					if path == nil {
						t.Fatalf("MaxEntries %d, event %d: the locator does not know alive record %d", opts.MaxEntries, i, rec)
					}
					path = slices.Clone(path)
					tree.path = tree.path[:0]
					wantIdx, found, err := tree.findBelow(tree.liveRoot().page, r.Rect, r.Ref)
					if err != nil || !found {
						t.Fatalf("event %d: the search does not find alive record %d: %v", i, rec, err)
					}
					if idx != wantIdx || !slices.Equal(path, tree.path) {
						t.Fatalf("MaxEntries %d, event %d, record %d: locator slot %d of leaf %d, search slot %d of leaf %d",
							opts.MaxEntries, i, rec, idx, path[len(path)-1].id, wantIdx, tree.path[len(tree.path)-1].id)
					}
					located++
				}
				if i%1037 == 0 {
					if _, err := tree.Validate(); err != nil {
						t.Fatalf("MaxEntries %d, event %d: %v", opts.MaxEntries, i, err)
					}
				}
			}
			if len(tree.located) != tree.Alive() {
				t.Fatalf("locator holds %d refs at the end of the bracket, %d records are alive", len(tree.located), tree.Alive())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for rec := range alive {
			if path, _ := tree.locateAliveRecord(recs[rec].Rect, recs[rec].Ref); path != nil {
				t.Fatal("the locator answered outside its bracket")
			}
		}
		if located == 0 || height < 2 {
			t.Fatalf("nothing compared: %d lookups, height %d", located, height)
		}
		if !bytes.Equal(treeImage(t, tree), treeImage(t, writeThrough(t, opts, recs))) {
			t.Errorf("MaxEntries %d: bracket with locator built a different tree than write-through", opts.MaxEntries)
		}
	}
}

// TestLocatorLeavesTwinsToTheSearch: with two alive copies of one (ref,
// rect) the locator must not answer — which copy a delete closes is the
// search's choice and shows in the pages. The replay's pages equal
// write-through's, and the case really occurred: deletes met the two
// copies in different leaves.
func TestLocatorLeavesTwinsToTheSearch(t *testing.T) {
	apart := 0
	for _, opts := range []Options{{}, {MaxEntries: 10}} {
		recs := withTwins(randRecords(rand.New(rand.NewSource(23)), 3000, 200), 5, 200)
		built, err := BuildRecords(opts, recs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(treeImage(t, built), treeImage(t, writeThrough(t, opts, recs))) {
			t.Errorf("MaxEntries %d: replay over twin records differs from write-through", opts.MaxEntries)
		}

		events, start, err := Events(recs)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := New(opts, start)
		if err != nil {
			t.Fatal(err)
		}
		err = tree.Batch(func() error {
			for _, ev := range events {
				r := recs[ev.Rec]
				if !ev.Insert && tree.located[r.Ref].copies == 2 {
					if path, _ := tree.locateAliveRecord(r.Rect, r.Ref); path != nil {
						t.Fatalf("the locator answered for ref %d, which has two alive copies", r.Ref)
					}
					leaves := 0
					for _, n := range residentNodes(tree) {
						if n.leaf && slices.ContainsFunc(n.entries, func(e pentry) bool { return e.alive() && e.ref == r.Ref }) {
							leaves++
						}
					}
					apart += leaves - 1
				}
				applyOne(t, tree, recs, ev)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if apart == 0 {
		t.Error("no delete met its ref's two copies in different leaves")
	}
}

// residentNodes lists the open bracket's table in page-id order.
func residentNodes(tree *Tree) []*pnode {
	var out []*pnode
	for id := range tree.nodes.Store().NumAllocated() {
		if n, ok := tree.nodes.Resident(pagefile.PageID(id)); ok {
			out = append(out, n)
		}
	}
	return out
}

// locatedCopies is the number of alive copies the open bracket's locator
// counts.
func locatedCopies(tree *Tree) int {
	n := 0
	for _, l := range tree.located {
		n += l.copies
	}
	return n
}

// TestLocatorOnlyWhereTheBracketSawEveryRecord: a locator is kept exactly
// when it has seen every alive copy — a record it missed may be the twin
// of a record a bracket adds, in a leaf the bracket never reads. The build
// keeps its locator for the next bracket, a write outside a bracket drops
// it, and a bracket that opens with none, on the tree or on its reopened
// image, walks the live tree for every alive copy. Appending twins of
// still-alive records builds the pages write-through builds.
func TestLocatorOnlyWhereTheBracketSawEveryRecord(t *testing.T) {
	opts := Options{MaxEntries: 10}
	rng := rand.New(rand.NewSource(24))
	early := randRecords(rng, 1500, 100)
	for i := range early {
		if i%3 == 0 {
			early[i].Interval.End = geom.Now // alive when the second chunk starts
		}
	}
	late := randRecords(rng, 3000, 200)
	for i := range late {
		late[i].Interval.Start += 100
		late[i].Interval.End += 100
		late[i].Ref += uint64(len(early))
		if i%4 == 0 {
			open := early[i/4*3%len(early)] // every third early record stays open
			late[i].Rect, late[i].Ref = open.Rect, open.Ref
		}
	}

	tree, err := BuildRecords(opts, early)
	if err != nil {
		t.Fatal(err)
	}
	seesEveryCopy := func(tree *Tree, when string) {
		t.Helper()
		if err := tree.Batch(func() error {
			if n := locatedCopies(tree); n != tree.Alive() {
				t.Errorf("%s: the bracket's locator counts %d alive copies, %d records are alive", when, n, tree.Alive())
			}
			_, err := tree.Validate()
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !tree.nodes.Kept() || tree.located == nil {
		t.Error("the build kept no table and locator for the next bracket")
	}
	seesEveryCopy(tree, "after the build")
	reopened := readTree(t, treeImage(t, tree))
	seesEveryCopy(reopened, "reopened")
	if err := reopened.Insert(early[0].Rect, 1<<40, reopened.Now()); err != nil {
		t.Fatal(err)
	}
	if reopened.nodes.Kept() {
		t.Error("a write outside a bracket left the kept locator behind the pages")
	}
	seesEveryCopy(reopened, "after a write outside a bracket")
	if err := tree.AppendRecords(late); err != nil {
		t.Fatal(err)
	}

	single := writeThrough(t, opts, early)
	events, _, err := Events(late)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		applyOne(t, single, late, ev)
	}
	if !bytes.Equal(treeImage(t, tree), treeImage(t, single)) {
		t.Error("appending twins of alive records in a bracket differs from write-through")
	}
}

// TestValidateCatchesStaleLocator: each of the locator checks Validate
// makes inside a bracket fails when the locator is wrong.
func TestValidateCatchesStaleLocator(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(25)), 600, 50)
	for i := range recs {
		recs[i].Interval.End = geom.Now
	}
	corrupt := func(name, want string, damage func(tree *Tree, leaf *pnode)) {
		tree, err := New(Options{MaxEntries: 10}, 0)
		if err != nil {
			t.Fatal(err)
		}
		err = tree.Batch(func() error {
			if err := Apply(tree, recs, mustEvents(t, recs)); err != nil {
				return err
			}
			if _, err := tree.Validate(); err != nil {
				t.Fatalf("%s: before the damage: %v", name, err)
			}
			path, _ := tree.locateAliveRecord(recs[0].Rect, recs[0].Ref)
			if len(path) < 2 {
				t.Fatalf("%s: record 0 located at depth %d", name, len(path))
			}
			damage(tree, path[len(path)-1])
			_, err := tree.Validate()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: Validate returned %v, want an error mentioning %q", name, err, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	otherLeaf := func(tree *Tree, not *pnode) *pnode {
		for _, n := range residentNodes(tree) {
			if n.leaf && n.live() && n != not {
				return n
			}
		}
		t.Fatal("the tree has one leaf")
		return nil
	}
	corrupt("record in the wrong leaf", "locator places record", func(tree *Tree, leaf *pnode) {
		tree.located[recs[0].Ref] = recLoc{leaf: otherLeaf(tree, leaf), copies: 1}
	})
	corrupt("entry for a record no longer alive", "alive copies", func(tree *Tree, leaf *pnode) {
		tree.located[1<<40] = recLoc{leaf: leaf, copies: 1}
	})
	corrupt("alive record missing", "the locator knows", func(tree *Tree, leaf *pnode) {
		delete(tree.located, recs[0].Ref)
	})
	corrupt("parent link to another node", "parent link names", func(tree *Tree, leaf *pnode) {
		for _, n := range residentNodes(tree) {
			if !n.leaf && n.live() && n != leaf.parent {
				leaf.parent = n
				return
			}
		}
		leaf.parent = otherLeaf(tree, leaf)
	})
}

func mustEvents(t *testing.T, recs []Record) []Event {
	t.Helper()
	events, _, err := Events(recs)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestKeptLocatorMatchesTheSearch feeds a replay in brackets of 256
// events, as ingest feeds commit groups, so each bracket opens on the
// table and locator the last one kept. Partway through, a freeze puts a
// container in the snapshot's place (Buffer.Release); later the tree is
// reopened from its image as a recovery opens it, and twins of records
// still alive are appended to the reopened tree (AppendRecords), whose
// bracket walks the live tree for its locator. After every bracket, for
// each alive ref the locator gives the leaf, slot and path the depth-first
// search gives, or gives way to the search for a ref with two alive
// copies; the pages end as write-through's.
func TestKeptLocatorMatchesTheSearch(t *testing.T) {
	opts := Options{MaxEntries: 10}
	recs := randRecords(rand.New(rand.NewSource(26)), 5000, 300)
	for i := range recs {
		if i%5 == 0 {
			recs[i].Interval.End = geom.Now
		}
	}
	events := mustEvents(t, recs)
	cut := len(events) / 2
	for events[cut].Time == events[cut-1].Time {
		cut++
	}
	at := events[cut].Time
	var twins []Record
	for _, ev := range events[:cut] {
		r := recs[ev.Rec]
		if ev.Insert && ev.Rec%4 == 0 && r.Interval.End > at {
			twins = append(twins, Record{Rect: r.Rect, Interval: geom.Interval{Start: at, End: geom.Now}, Ref: r.Ref})
		}
	}

	alive := map[uint64]int{} // ref → alive copies
	rects := map[uint64]geom.Rect{}
	twinned := map[uint64]bool{} // refs that had two alive copies since they last had none
	track := func(r Record, insert bool) {
		if insert {
			alive[r.Ref]++
			rects[r.Ref] = r.Rect
			twinned[r.Ref] = twinned[r.Ref] || alive[r.Ref] > 1
		} else if alive[r.Ref]--; alive[r.Ref] == 0 {
			delete(alive, r.Ref)
			delete(twinned, r.Ref)
		}
	}
	compared, deferred := 0, 0
	check := func(tree *Tree, when string) {
		t.Helper()
		err := tree.Batch(func() error {
			// Validate holds the locator against the live tree, but it
			// refuses two copies of one ref alive at once.
			if len(alive) == tree.Alive() {
				if _, err := tree.Validate(); err != nil {
					return err
				}
			}
			if len(tree.located) != len(alive) {
				t.Fatalf("%s: the locator knows %d refs, %d are alive", when, len(tree.located), len(alive))
			}
			for ref, copies := range alive {
				rect := rects[ref]
				path, idx := tree.locateAliveRecord(rect, ref)
				if copies > 1 {
					if path != nil {
						t.Fatalf("%s: the locator answered for ref %d, which has %d alive copies", when, ref, copies)
					}
					deferred++
					continue
				}
				if path == nil {
					if !twinned[ref] {
						t.Fatalf("%s: the locator does not know alive ref %d", when, ref)
					}
					continue // a ref that had a twin stays unnamed until it has no copy
				}
				path = slices.Clone(path)
				tree.path = tree.path[:0]
				wantIdx, found, err := tree.findBelow(tree.liveRoot().page, rect, ref)
				if err != nil || !found {
					t.Fatalf("%s: the search does not find alive ref %d: %v", when, ref, err)
				}
				if idx != wantIdx || !slices.Equal(path, tree.path) {
					t.Fatalf("%s, ref %d: locator slot %d of leaf %d, search slot %d of leaf %d",
						when, ref, idx, path[len(path)-1].id, wantIdx, tree.path[len(tree.path)-1].id)
				}
				compared++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	feed := func(tree *Tree, events []Event) {
		t.Helper()
		for lo := 0; lo < len(events); lo += 256 {
			group := events[lo:min(lo+256, len(events))]
			if err := tree.Batch(func() error {
				for _, ev := range group {
					applyOne(t, tree, recs, ev)
					track(recs[ev.Rec], ev.Insert)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !tree.nodes.Kept() {
				t.Fatalf("events %d..: the bracket kept nothing for the next", lo)
			}
			check(tree, fmt.Sprintf("after the bracket of events %d..", lo))
		}
	}
	freeze := func(tree *Tree) {
		t.Helper()
		snap := tree.Store().(*pagefile.File).Snapshot()
		var buf bytes.Buffer
		if _, err := pagefile.WriteExtent(&buf, snap, pagefile.LayoutPPR); err != nil {
			t.Fatal(err)
		}
		base, _, err := pagefile.OpenExtent(bytes.NewReader(buf.Bytes()), 0, int64(buf.Len()), pagefile.CodecIDCompressed, pagefile.BackendDisk)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Buffer().Release(base); err != nil {
			t.Fatal(err)
		}
		snap.Close()
	}
	reopen := func(tree *Tree) *Tree {
		t.Helper()
		r := bytes.NewReader(treeImage(t, tree))
		re, err := ReadMeta(r)
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := pagefile.OpenExtent(r, r.Size()-int64(r.Len()), r.Size(), pagefile.CodecIDCompressed, pagefile.BackendDisk)
		if err != nil {
			t.Fatal(err)
		}
		if err := re.AttachStore(pagefile.Over(s)); err != nil {
			t.Fatal(err)
		}
		return re
	}

	tree, err := New(opts, events[0].Time)
	if err != nil {
		t.Fatal(err)
	}
	quarter := cut / 2 / 256 * 256
	feed(tree, events[:quarter])
	freeze(tree)
	check(tree, "after the freeze")
	feed(tree, events[quarter:cut])
	tree = reopen(tree)
	if err := tree.AppendRecords(twins); err != nil {
		t.Fatal(err)
	}
	for _, r := range twins {
		track(r, true)
	}
	check(tree, "after the twins")
	deferredBefore := deferred
	feed(tree, events[cut:])
	if compared == 0 || deferredBefore == 0 || deferred == deferredBefore {
		t.Fatalf("nothing to hold: %d located refs compared, %d twin lookups (%d after the reopen)", compared, deferred, deferred-deferredBefore)
	}

	single, err := New(opts, events[0].Time)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[:cut] {
		applyOne(t, single, recs, ev)
	}
	for _, r := range twins {
		if err := single.Insert(r.Rect, r.Ref, at); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range events[cut:] {
		applyOne(t, single, recs, ev)
	}
	if !bytes.Equal(treeImage(t, tree), treeImage(t, single)) {
		t.Error("brackets over a kept locator built a different tree than write-through")
	}
}
