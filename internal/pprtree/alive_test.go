package pprtree

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"stindex/internal/geom"
	"stindex/internal/pagefile"
)

// TestPNodeSize: the alive count sits in dirty's padding word, so a
// decoded node stays in the 96-byte size class.
func TestPNodeSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the node size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(pnode{}); got != 96 {
		t.Fatalf("unsafe.Sizeof(pnode{}) = %d, want 96", got)
	}
}

// aliveHistory is a random Insert/Delete history, one update per instant
// from time 1 on: a growth phase with some deletes, a phase that deletes
// most records (weak underflows, sibling merges, root shrinks) and a
// second growth.
func aliveHistory(rng *rand.Rand) []onlineOp {
	var ops []onlineOp
	var alive []onlineOp
	next := uint64(0)
	for _, phase := range []struct {
		ops     int
		inserts float64
	}{{500, 0.8}, {450, 0.1}, {300, 0.75}} {
		for i := 0; i < phase.ops; i++ {
			time := int64(len(ops) + 1)
			if len(alive) == 0 || rng.Float64() < phase.inserts {
				x, y := rng.Float64(), rng.Float64()
				r := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}
				op := onlineOp{kind: 'i', rect: r, ref: next, time: time}
				next++
				ops = append(ops, op)
				alive = append(alive, op)
				continue
			}
			j := rng.Intn(len(alive))
			ops = append(ops, onlineOp{kind: 'd', rect: alive[j].rect, ref: alive[j].ref, time: time})
			alive[j] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		}
	}
	return ops
}

// structureEvents reads off a tree built one update per instant how many
// key splits, sibling merges and root shrinks its history made: at one
// instant an update version-splits at most one node per level, so two
// nodes born at one level and instant are a key split, two that died
// there a merge, and a root span lower than the one before it a shrink.
func structureEvents(t *testing.T, tree *Tree) (keySplits, merges, shrinks int) {
	t.Helper()
	type at struct {
		level int
		time  int64
	}
	born, died := map[at]int{}, map[at]int{}
	seen := map[pagefile.PageID]bool{}
	var walk func(id pagefile.PageID, level int)
	walk = func(id pagefile.PageID, level int) {
		if seen[id] {
			return
		}
		seen[id] = true
		n, err := tree.nodes.ReadShared(id)
		if err != nil {
			t.Fatal(err)
		}
		born[at{level, n.startT}]++
		if !n.live() {
			died[at{level, n.endT}]++
		}
		if !n.leaf {
			for _, e := range n.entries {
				walk(pagefile.PageID(e.ref), level-1)
			}
		}
	}
	for i, r := range tree.roots {
		walk(r.page, r.height-1)
		if i > 0 && r.height < tree.roots[i-1].height {
			shrinks++
		}
	}
	for _, c := range born {
		if c >= 2 {
			keySplits++
		}
	}
	for _, c := range died {
		if c >= 2 {
			merges++
		}
	}
	return keySplits, merges, shrinks
}

// TestAliveCountThroughHistory: the alive count the update path keeps on
// live nodes stays equal to a recount through a history of inserts and
// deletes that reaches key splits, sibling merges and root shrinks.
// Inside one bracket Validate holds every resident node's count to its
// entries after every update, and so does the test for the nodes the
// update killed; write-through, where every update parses
// its nodes afresh, Validate runs after every update as well, and both
// trees serialise to the same bytes.
func TestAliveCountThroughHistory(t *testing.T) {
	ops := aliveHistory(rand.New(rand.NewSource(29)))
	opts := Options{MaxEntries: 10}

	bracketed, err := New(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var held []*pnode
	err = bracketed.Batch(func() error {
		for i, op := range ops {
			// The nodes resident before the update, also those it kills and
			// drops from the table, must count right after it.
			held = held[:0]
			for _, n := range residentNodes(bracketed) {
				held = append(held, n)
			}
			if err := op.apply(bracketed); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if _, err := bracketed.Validate(); err != nil {
				t.Fatalf("inside the bracket after op %d: %v", i, err)
			}
			for _, n := range held {
				if int(n.nalive) != n.aliveCount() {
					t.Fatalf("after op %d node %d (live %v) counts %d alive entries, holds %d", i, n.id, n.live(), n.nalive, n.aliveCount())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	single, err := New(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if err := op.apply(single); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if _, err := single.Validate(); err != nil {
			t.Fatalf("write-through after op %d: %v", i, err)
		}
	}
	if !bytes.Equal(treeImage(t, bracketed), treeImage(t, single)) {
		t.Fatal("the bracketed history built a different tree than the write-through one")
	}

	keySplits, merges, shrinks := structureEvents(t, single)
	t.Logf("%d updates: %d key splits, %d sibling merges, %d root shrinks", len(ops), keySplits, merges, shrinks)
	if keySplits == 0 || merges == 0 || shrinks == 0 {
		t.Fatalf("history too tame: %d key splits, %d sibling merges, %d root shrinks", keySplits, merges, shrinks)
	}
}

// TestValidateCatchesStaleAliveCount: a resident node whose alive count
// differs from its entries fails validation.
func TestValidateCatchesStaleAliveCount(t *testing.T) {
	tree, err := BuildRecords(Options{MaxEntries: 10}, randRecords(rand.New(rand.NewSource(3)), 400, 100))
	if err != nil {
		t.Fatal(err)
	}
	err = tree.Batch(func() error {
		root, err := tree.nodes.Read(tree.liveRoot().page)
		if err != nil {
			return err
		}
		root.nalive++
		_, err = tree.Validate()
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "alive entries") {
		t.Errorf("Validate over a resident node with a stale alive count returned %v", err)
	}
}
