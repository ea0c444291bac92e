package stindex

import (
	"fmt"
	"sync"
	"testing"
)

// TestQueryViewsConcurrentQueries: every index kind, the stream index
// included, answers through goroutines that each hold their own
// QueryView exactly as it answers serially, and (under -race) no data
// race is reported; MeasureWorkloadParallel, which runs on such views,
// reports the serial numbers.
func TestQueryViewsConcurrentQueries(t *testing.T) {
	const goroutines = 8
	objs := genObjects(t, 400, 41)
	queries, err := GenerateQueries(QuerySnapshotMixed, 1000, 43)
	if err != nil {
		t.Fatal(err)
	}
	queries = queries[:200]

	for _, kind := range buildQueryTestKinds(t, objs) {
		// Serial ground truth.
		want := make([][]int64, len(queries))
		for i, q := range queries {
			ids, err := RunQuery(kind.idx, q)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = ids
		}

		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int, view Index) {
				defer wg.Done()
				for i := g; i < len(queries); i += goroutines {
					ids, err := RunQuery(view, queries[i])
					if err != nil {
						errs <- err
						return
					}
					if !equalIDs(ids, want[i]) {
						errs <- fmt.Errorf("%s: query %d answers %v through a view, %v serially", kind.name, i, ids, want[i])
						return
					}
				}
			}(g, kind.idx.QueryView())
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		// The measurement fans out over views too, with the serial
		// loop's numbers.
		serial, err := MeasureWorkload(kind.idx, queries)
		if err != nil {
			t.Fatal(err)
		}
		if par, err := MeasureWorkloadParallel(kind.idx, queries, 4); err != nil || par != serial {
			t.Fatalf("%s: MeasureWorkloadParallel %+v (%v), serial %+v", kind.name, par, err, serial)
		}

		view := kind.idx.QueryView()
		if view.Kind() != kind.idx.Kind() || view.Records() != kind.idx.Records() {
			t.Fatalf("%s: view accessors differ from the index's", kind.name)
		}
		if view.Pages() != kind.idx.Pages() || view.Bytes() != kind.idx.Bytes() {
			t.Fatalf("%s: view footprint differs from the index's", kind.name)
		}
	}
}
