// Package owner is the record → object table of an index. Splitting
// gives one object several records, and a tree search emits record
// references; the table says which object each belongs to. Objects are
// numbered densely — ordinals 0..n-1 — so a query can collect the
// owners it meets in a bitset over ordinals instead of a set of ids.
package owner

import "slices"

// Table maps record reference r to the object IDs[Ord[r]]. A table
// numbered by ByRank is Ascending: ordinal order is id order, so
// ordinals drained in ascending order are ids in ascending order. A
// table grown one object at a time (the stream indexer's) stays
// Ascending only while objects arrive in ascending id order.
type Table struct {
	Ord       []uint32 // per record reference: the owner's ordinal
	IDs       []int64  // per ordinal: the object id
	Ascending bool
}

// ByRank builds the table of n records whose record r belongs to object
// id(r), numbering the objects by the rank of their id. It sorts only
// the ids that start a run of equal ids: the records of one object come
// together from the splitters and the shard partitioner, so that is one
// id per object, and none when the objects also come in ascending id
// order.
func ByRank(n int, id func(r int) int64) Table {
	runs, sorted := 0, true
	for r := 0; r < n; r++ {
		if r == 0 || id(r) != id(r-1) {
			sorted = sorted && (r == 0 || id(r) > id(r-1))
			runs++
		}
	}
	heads := make([]int64, 0, runs) // the id of each run
	for r := 0; r < n; r++ {
		if v := id(r); r == 0 || v != heads[len(heads)-1] {
			heads = append(heads, v)
		}
	}
	t := Table{Ord: make([]uint32, n), IDs: heads, Ascending: true}
	if !sorted {
		t.IDs = slices.Clone(heads)
		slices.Sort(t.IDs)
		t.IDs = slices.Clip(slices.Compact(t.IDs))
	}
	run, rank := -1, 0
	for r := range t.Ord {
		if r == 0 || id(r) != id(r-1) {
			run++
			rank = run
			if !sorted {
				rank, _ = slices.BinarySearch(t.IDs, heads[run])
			}
		}
		t.Ord[r] = uint32(rank)
	}
	return t
}

// Owner returns the object owning record reference ref, and false for a
// reference the table does not know.
func (t *Table) Owner(ref uint64) (int64, bool) {
	if ref >= uint64(len(t.Ord)) {
		return 0, false
	}
	return t.IDs[t.Ord[ref]], true
}

// Records returns the number of record references the table maps.
func (t *Table) Records() int { return len(t.Ord) }

// Add appends a record owned by ordinal o and returns its reference.
func (t *Table) Add(o uint32) uint64 {
	t.Ord = append(t.Ord, o)
	return uint64(len(t.Ord) - 1)
}

// NewObject numbers a new object and returns its ordinal.
func (t *Table) NewObject(id int64) uint32 {
	if n := len(t.IDs); n == 0 {
		t.Ascending = true
	} else if id <= t.IDs[n-1] {
		t.Ascending = false
	}
	t.IDs = append(t.IDs, id)
	return uint32(len(t.IDs) - 1)
}
