package stindex

import (
	"sync"
	"testing"
)

func TestSynchronizedConcurrentQueries(t *testing.T) {
	objs := genObjects(t, 400, 41)
	records, _, err := SplitDataset(objs, SplitConfig{Budget: 600})
	if err != nil {
		t.Fatal(err)
	}
	base, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	idx := Synchronized(base)

	queries, err := GenerateQueries(QuerySnapshotMixed, 1000, 43)
	if err != nil {
		t.Fatal(err)
	}
	queries = queries[:200]

	// Sequential ground truth.
	want := make([][]int64, len(queries))
	for i, q := range queries {
		ids, err := RunQuery(idx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sortedIDs(ids)
	}

	// Hammer the same workload from many goroutines; results must match
	// and (under -race) no data race may be reported.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(queries); i += 8 {
				ids, err := RunQuery(idx, queries[i])
				if err != nil {
					errs <- err
					return
				}
				got := sortedIDs(ids)
				if !equalIDs(got, want[i]) {
					errs <- errMismatch(i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if idx.Kind() != "ppr" || idx.Records() != len(records) {
		t.Fatal("wrapper accessor mismatch")
	}
	if idx.Pages() != base.Pages() || idx.Bytes() != base.Bytes() {
		t.Fatal("wrapper footprint mismatch")
	}
}

type errMismatch int

func (e errMismatch) Error() string { return "concurrent query result mismatch" }
