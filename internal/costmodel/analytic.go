package costmodel

import (
	"fmt"
	"math"

	"stindex/internal/geom"
)

// TreeModel estimates index shape and query cost directly from the record
// boxes, before any index exists — the Theodoridis–Sellis style analysis
// the paper's §IV relies on. Fanout is the effective node fanout
// (capacity × average fill, ~69% for R*-trees).
type TreeModel struct {
	Fanout float64
}

// DefaultTreeModel uses the paper's 50-entry nodes at a typical 69% fill.
func DefaultTreeModel() TreeModel { return TreeModel{Fanout: 50 * 0.69} }

// PredictEphemeral2D estimates the expected node accesses per snapshot
// query of the ephemeral 2D R-tree a PPR-tree exposes at one instant,
// given the records alive at that instant.
func (m TreeModel) PredictEphemeral2D(alive []geom.Rect, q QueryProfile) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if m.Fanout <= 1 {
		return 0, fmt.Errorf("costmodel: fanout %g must exceed 1", m.Fanout)
	}
	n := len(alive)
	if n == 0 {
		return 0, nil
	}
	var sx, sy float64
	for _, r := range alive {
		sx += r.MaxX - r.MinX
		sy += r.MaxY - r.MinY
	}
	sx /= float64(n)
	sy /= float64(n)

	total := 0.0
	for count := float64(n) / m.Fanout; ; count /= m.Fanout {
		nodes := math.Ceil(count)
		if nodes <= 1 {
			total++
			break
		}
		share := math.Pow(1/nodes, 0.5)
		total += nodes * accessProb(share+sx+q.ExtentX, share+sy+q.ExtentY)
	}
	return total, nil
}
