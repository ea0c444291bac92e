package geom

import (
	"fmt"
	"math"
)

// Box is a 3-dimensional axis-parallel box: a spatial rectangle extruded
// over a discrete time interval. It is the unit that both index structures
// store — the R*-tree as a genuine 3D rectangle (with the time axis scaled)
// and the PPR-tree as a 2D rectangle plus lifetime fields.
type Box struct {
	Rect
	Interval
}

// NewBox builds a box from its spatial and temporal parts.
func NewBox(r Rect, iv Interval) Box {
	return Box{Rect: r, Interval: iv}
}

// Volume returns spatial area times temporal length. This is the quantity
// the paper's splitting algorithms minimise (the "total volume" of an
// object's representation). Boxes that are still open (End == Now) have
// infinite volume; the splitting pipeline always operates on closed boxes.
func (b Box) Volume() float64 {
	if b.Rect.IsEmpty() || !b.Interval.ValidInterval() {
		return 0
	}
	if b.End == Now {
		return math.Inf(1)
	}
	return b.Rect.Area() * float64(b.Interval.Length())
}

func (b Box) String() string {
	return fmt.Sprintf("%v@%v", b.Rect, b.Interval)
}
