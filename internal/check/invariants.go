package check

import (
	"fmt"

	stx "stindex"
)

// sweepBounds covers every record the harness generates: the full unit
// space with generous slack, and a time axis wide enough for any horizon
// while staying far from the float-precision and Now edges the R*-tree's
// scaled time axis cannot represent.
var (
	sweepRect     = stx.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}
	sweepInterval = stx.Interval{Start: -(1 << 40), End: 1 << 40}
)

// CheckInvariants runs the structural validation walk for the index's
// kind — MBR containment, fanout bounds, time-interval nesting and
// alive-entry consistency on every reachable node (each tree package's
// Validate) — and then sweeps every record through the facade's
// owner-checked query path, so a dangling record reference (a ref beyond
// the owner table) surfaces too. It accepts every persisted kind: ppr,
// rstar and stream-ppr.
func CheckInvariants(x stx.Index) error {
	switch ix := x.(type) {
	case *stx.PPRIndex:
		if _, err := ix.Tree().Validate(); err != nil {
			return fmt.Errorf("check: ppr invariants: %w", err)
		}
	case *stx.RStarIndex:
		if err := ix.Tree().Validate(); err != nil {
			return fmt.Errorf("check: rstar invariants: %w", err)
		}
	case *stx.StreamIndex:
		if _, err := ix.Tree().Validate(); err != nil {
			return fmt.Errorf("check: stream invariants: %w", err)
		}
		// Alive-entry consistency: every live object holds exactly one open
		// piece, and open pieces are exactly the tree's alive records.
		if alive, live := ix.Tree().Alive(), ix.Live(); alive != live {
			return fmt.Errorf("check: stream invariants: %d alive tree records for %d live objects", alive, live)
		}
		// The owner sweep below also verifies every reachable ref is owned.
	default:
		return fmt.Errorf("check: no invariant walker for index kind %q (%T)", x.Kind(), x)
	}
	return ownerSweep(x)
}

// ownerSweep runs one all-covering range query through the facade, which
// resolves every reachable record reference against the owner table (its
// one owner lookup errors on a dangling ref instead of fabricating an
// owner).
func ownerSweep(x stx.Index) error {
	if _, err := x.Range(sweepRect, sweepInterval); err != nil {
		return fmt.Errorf("check: owner sweep: %w", err)
	}
	return nil
}
