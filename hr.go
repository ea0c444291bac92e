package stindex

import (
	"fmt"

	"stindex/internal/hrtree"
	"stindex/internal/owner"
	"stindex/internal/pprtree"
)

// HRIndex is an overlapping (historical) R-tree over the record set — the
// other classic road to partial persistence (the paper's reference [17],
// built on the overlapping idea of [4]): one logical R-tree per time
// instant, unchanged branches shared between consecutive versions.
//
// The paper's related work (citing [24]) notes this approach pays a
// logarithmic storage overhead per update and probes one tree per version
// for interval queries; BuildHR exists so those costs can be measured
// against the PPR-tree (`stbench -exp overlap`).
type HRIndex struct {
	treeIndex
	tree *hrtree.Tree
}

func newHRIndex(tree *hrtree.Tree, owners *owner.Table) *HRIndex {
	return &HRIndex{
		treeIndex: treeIndex{search: tree, owners: owners, kind: "hr"},
		tree:      tree,
	}
}

// BuildHR indexes the records with an overlapping R-tree in the paper's
// node setup, replaying their insertions and deletions chronologically.
func BuildHR(records []Record) (*HRIndex, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("stindex: no records to index")
	}
	recs := make([]pprtree.Record, len(records))
	for i, r := range records {
		recs[i] = pprtree.Record{Rect: r.Rect.internal(), Interval: r.Interval.internal(), Ref: uint64(i)}
	}
	tree, err := buildHRFromRecords(recs)
	if err != nil {
		return nil, err
	}
	return newHRIndex(tree, ownersOf(records)), nil
}

// buildHRFromRecords replays records in chronological order (deletions
// first within an instant), the PPR build's replay order, inside one
// write-back bracket.
func buildHRFromRecords(records []pprtree.Record) (*hrtree.Tree, error) {
	for i, r := range records {
		if !r.Rect.Valid() || !r.Interval.ValidInterval() {
			return nil, fmt.Errorf("stindex: record %d invalid", i)
		}
	}
	events, start, err := pprtree.Events(records)
	if err != nil {
		return nil, err
	}
	tree, err := hrtree.New(hrtree.Options{}, start)
	if err != nil {
		return nil, err
	}
	if err := tree.Batch(func() error { return pprtree.Apply(tree, records, events) }); err != nil {
		return nil, err
	}
	return tree, nil
}

// Tree exposes the underlying overlapping R-tree.
func (x *HRIndex) Tree() *hrtree.Tree { return x.tree }

// QueryView implements Index: a read-only view with its own buffer pool
// over the shared page file.
func (x *HRIndex) QueryView() Index { return newHRIndex(x.tree.QueryView(), x.owners) }

var _ Index = (*HRIndex)(nil)
