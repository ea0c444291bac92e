package stindex

import (
	"testing"

	"stindex/internal/geom"
)

// TestTraversalZeroAllocs asserts what the search benchmarks only report:
// once the pooled scratch has grown and every page has been decoded, a
// snapshot, interval or nearest search on any of the three trees —
// through the reference-emitting view the query core runs on — allocates
// nothing; and that the query core above it allocates the answer, sized
// once, and a fixed two cells a query, nothing that grows with the
// answer.
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

	// One level up, through the query core: Index.Range on a warmed view
	// allocates the answer and two fixed cells (the emit closure and the
	// error it may write) — the owner bitset is the view's, drained clear.
	// The answer is sized from the bitset's count: one allocation.
	for _, kind := range []struct {
		name string
		idx  Index
	}{{"ppr", ppr}, {"rstar", rst}, {"hr", hr}} {
		view := kind.idx.(QueryViewer).QueryView()
		bound := 0
		for _, q := range ranges { // the warm-up pass, and the bound it earns
			ids, err := view.Range(q.Rect, q.Interval)
			if err != nil {
				t.Fatalf("%s/range: %v", kind.name, err)
			}
			bound += 2
			if len(ids) > 0 {
				bound++
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			for _, q := range ranges {
				if _, err := view.Range(q.Rect, q.Interval); err != nil {
					t.Fatalf("%s/range: %v", kind.name, err)
				}
			}
		})
		if allocs > float64(bound) {
			t.Errorf("%s/range: %v allocations per pass of %d queries, want at most %d (the answers and 2 a query)",
				kind.name, allocs, len(ranges), bound)
		}
	}
}
