package stindex

import (
	"fmt"

	"stindex/internal/pprtree"
)

// IndexDescription summarises an index's physical shape for diagnostics.
type IndexDescription struct {
	Kind    string
	Records int
	Pages   int
	Bytes   int64
	Height  int
	// Nodes is the number of distinct reachable tree nodes. For a
	// PPR-tree (ppr, stream) it splits into live and dead nodes and
	// counts RootSpans in the root log; those fields stay zero for the
	// R*-tree.
	Nodes     int
	LiveNodes int
	DeadNodes int
	RootSpans int
	// AvgLeafFill is the average leaf occupancy in [0,1] (R*-tree only;
	// PPR-tree leaves mix alive and dead records, so occupancy is not a
	// meaningful health metric there).
	AvgLeafFill float64
}

// Describe walks an index and reports its physical shape. Supported for
// the ppr, rstar, hr and stream kinds; the walk goes through the buffer
// pool, so reset I/O counters afterwards if measuring.
func Describe(idx Index) (IndexDescription, error) {
	d := IndexDescription{
		Kind:    idx.Kind(),
		Records: idx.Records(),
		Pages:   idx.Pages(),
		Bytes:   idx.Bytes(),
	}
	switch x := idx.(type) {
	case *PPRIndex, *StreamIndex:
		// The stream indexer keeps its pieces in a PPR-tree: same walk.
		tree := x.(interface{ Tree() *pprtree.Tree }).Tree()
		rep, err := tree.Validate()
		if err != nil {
			return d, fmt.Errorf("stindex: describing a corrupt index: %w", err)
		}
		d.Height = tree.Height()
		d.Nodes = rep.Nodes
		d.LiveNodes = rep.LiveNodes
		d.DeadNodes = rep.DeadNodes
		d.RootSpans = tree.NumRoots()
		return d, nil
	case *RStarIndex:
		levels, err := x.Tree().Levels()
		if err != nil {
			return d, err
		}
		d.Height = x.Tree().Height()
		for _, lv := range levels {
			d.Nodes += lv.Nodes
		}
		if len(levels) > 0 {
			leaves := levels[len(levels)-1].Nodes
			if leaves > 0 {
				d.AvgLeafFill = float64(x.Tree().Len()) /
					float64(leaves*x.Tree().Options().MaxEntries)
			}
		}
		return d, nil
	case *HRIndex:
		if err := x.Tree().Validate(); err != nil {
			return d, fmt.Errorf("stindex: describing a corrupt index: %w", err)
		}
		d.RootSpans = x.Tree().NumVersions()
		return d, nil
	default:
		return d, fmt.Errorf("stindex: Describe does not support %T", idx)
	}
}

// String renders the description on one line.
func (d IndexDescription) String() string {
	s := fmt.Sprintf("%s: records=%d pages=%d (%d KiB) height=%d nodes=%d",
		d.Kind, d.Records, d.Pages, d.Bytes/1024, d.Height, d.Nodes)
	if d.DeadNodes > 0 || d.RootSpans > 0 {
		s += fmt.Sprintf(" live=%d dead=%d rootSpans=%d", d.LiveNodes, d.DeadNodes, d.RootSpans)
	}
	if d.AvgLeafFill > 0 {
		s += fmt.Sprintf(" leafFill=%.0f%%", 100*d.AvgLeafFill)
	}
	return s
}
