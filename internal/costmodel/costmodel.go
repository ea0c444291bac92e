// Package costmodel implements §IV of the paper: analytical prediction of
// query cost and automatic selection of the number of artificial splits.
//
// The models follow Pagel's query cost formula and the Theodoridis–Sellis
// R-tree analysis: for window queries uniformly distributed in the unit
// space, the probability that a query of extents (q1..qd) accesses a node
// whose MBR has extents (s1..sd) is ∏(s_i + q_i), so the expected number
// of node accesses is the sum of that product over all nodes. For an index
// that does not exist yet, node extents are estimated from the dataset
// (records per leaf ≈ fanout, node area ≈ covered record mass).
package costmodel

import "fmt"

// QueryProfile is the average window query of a workload: spatial extents
// as fractions of the unit space and a duration in time instants
// (Duration 1 = snapshot).
type QueryProfile struct {
	ExtentX, ExtentY float64
	Duration         int64
}

// Validate checks the profile is usable.
func (q QueryProfile) Validate() error {
	if q.ExtentX < 0 || q.ExtentX > 1 || q.ExtentY < 0 || q.ExtentY > 1 {
		return fmt.Errorf("costmodel: query extents (%g,%g) outside [0,1]", q.ExtentX, q.ExtentY)
	}
	if q.Duration < 1 {
		return fmt.Errorf("costmodel: query duration %d < 1", q.Duration)
	}
	return nil
}

// accessProb returns the Pagel access probability for one axis pair,
// clamped to [0,1] (boxes near the space boundary cannot exceed certainty).
func accessProb(sides ...float64) float64 {
	p := 1.0
	for _, s := range sides {
		if s < 0 {
			s = 0
		}
		p *= s
	}
	if p > 1 {
		p = 1
	}
	return p
}
