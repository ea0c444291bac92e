package stindex

import (
	"testing"

	"stindex/internal/geom"
)

// TestTraversalZeroAllocs asserts what the search benchmarks only report:
// once the pooled scratch has grown and every page has been decoded, a
// snapshot, interval or nearest search on any of the three trees —
// through the reference-emitting view the query core runs on — allocates
// nothing.
func TestTraversalZeroAllocs(t *testing.T) {
	ppr, rst, hr := goldenWorkload(t)
	snapshots := goldenQueries(t, QuerySnapshotMixed)[:50]
	ranges := goldenQueries(t, QueryRangeSmall)[:50]

	emitted, left := 0, 0
	emit := func(geom.Rect, uint64) bool { emitted++; return true }
	tenNearest := func(float64, uint64) bool { emitted++; left--; return left > 0 }

	for _, kind := range []struct {
		name string
		tree refSearch
	}{
		{"ppr", ppr.(*PPRIndex).search},
		{"rstar", rst.(*RStarIndex).search},
		{"hr", hr.(*HRIndex).search},
	} {
		for _, row := range []struct {
			name    string
			queries []Query
			search  func(q Query) error
		}{
			{"snapshot", snapshots, func(q Query) error {
				return kind.tree.SnapshotSearch(q.Rect.internal(), q.Interval.Start, emit)
			}},
			{"interval", ranges, func(q Query) error {
				return kind.tree.IntervalSearch(q.Rect.internal(), q.Interval.internal(), emit)
			}},
			{"nearest", snapshots, func(q Query) error {
				left = 10
				return kind.tree.NearestSearch(q.Rect.MinX, q.Rect.MinY, q.Interval.Start, tenNearest)
			}},
		} {
			pass := func() {
				for _, q := range row.queries {
					if err := row.search(q); err != nil {
						t.Fatalf("%s/%s: %v", kind.name, row.name, err)
					}
				}
			}
			emitted = 0
			pass() // warm-up: grows the scratch, decodes every page the queries touch
			if emitted == 0 {
				t.Fatalf("%s/%s: the queries matched nothing", kind.name, row.name)
			}
			if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
				t.Errorf("%s/%s: %v allocations per pass of %d queries, want 0",
					kind.name, row.name, allocs, len(row.queries))
			}
		}
	}
}
