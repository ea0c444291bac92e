package stindex_test

import (
	"fmt"
	"log"

	stx "stindex"
)

// The basic pipeline: generate, split, index, query.
func ExampleSplitDataset() {
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 500, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	records, report, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 750})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("objects=%d records=%d splits=%d\n", len(objs), len(records), report.UsedSplits)
	fmt.Printf("dead space removed: %.0f%%\n", 100*report.Gain())
	// Output:
	// objects=500 records=1250 splits=750
	// dead space removed: 68%
}

func ExampleBuildPPR() {
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 500, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 750})
	if err != nil {
		log.Fatal(err)
	}
	idx, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		log.Fatal(err)
	}
	idx.ResetBuffer()
	ids, err := idx.Snapshot(stx.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}, 500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("objects in the window at t=500: %d\n", len(ids))
	fmt.Printf("disk accesses (cold 10-page buffer): %d\n", idx.IOStats().IO())
	// Output:
	// objects in the window at t=500: 23
	// disk accesses (cold 10-page buffer): 1
}

func ExampleNewObjectFromSegments() {
	// A point accelerating along x: x(t) = 0.1 + 0.001·t², constant y.
	o, err := stx.NewObjectFromSegments(7, []stx.Segment{{
		Start: 0, End: 20,
		X:     []float64{0.1, 0, 0.001},
		Y:     []float64{0.5},
		HalfW: []float64{0.01},
		HalfH: []float64{0.01},
	}})
	if err != nil {
		log.Fatal(err)
	}
	r0, _ := o.At(0)
	r10, _ := o.At(10)
	fmt.Printf("lifetime %v\n", o.Lifetime())
	fmt.Printf("center x at t=0: %.2f, at t=10: %.2f\n", (r0.MinX+r0.MaxX)/2, (r10.MinX+r10.MaxX)/2)
	// Output:
	// lifetime {0 20}
	// center x at t=0: 0.10, at t=10: 0.20
}

func ExampleNewStreamIndex() {
	ix, err := stx.NewStreamIndex(stx.StreamOptions{Lambda: 0.001}, 0)
	if err != nil {
		log.Fatal(err)
	}
	// A point object drifting right, one observation per instant.
	for t := int64(0); t < 30; t++ {
		x := 0.1 + float64(t)*0.02
		r := stx.Rect{MinX: x, MinY: 0.5, MaxX: x + 0.01, MaxY: 0.51}
		if err := ix.Observe(1, t, r); err != nil {
			log.Fatal(err)
		}
	}
	if err := ix.Finish(1, 30); err != nil {
		log.Fatal(err)
	}
	// The past stays queryable: where was the object around t=5?
	ids, err := ix.Snapshot(stx.Rect{MinX: 0.15, MinY: 0.45, MaxX: 0.25, MaxY: 0.55}, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d object, %d lifetime pieces\n", len(ids), ix.Records())
	// Output:
	// found 1 object, 10 lifetime pieces
}
