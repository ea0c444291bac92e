package stindex_test

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"sort"

	stx "stindex"
)

// Quickstart: generate a dataset, split it, index it both ways, and
// compare the query cost — the library's whole pipeline in ~50 lines.
func Example_quickstart() {
	// 1. A thousand rectangles moving with general (polynomial) motion
	//    over 1000 time instants.
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 1000, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Split their lifetimes under a budget of 150% of the object count
	//    (the paper's sweet spot) to cut away dead space.
	records, report, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 1500})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("split %d objects into %d records, removing %.0f%% of the dead space\n",
		len(objs), report.Records, 100*report.Gain())

	// 3. Index the records with the partially persistent R-tree and, for
	//    comparison, the straightforward 3D R*-tree over the same records.
	ppr, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		log.Fatal(err)
	}
	rstar, err := stx.BuildRStar(records, stx.RStarOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Ask both: which objects were inside this window at time 500?
	//    Same records, same answers — only the disk accesses differ.
	window := stx.Rect{MinX: 0.40, MinY: 0.40, MaxX: 0.60, MaxY: 0.60}
	for _, idx := range []stx.Index{ppr, rstar} {
		idx.ResetBuffer()
		ids, err := idx.Snapshot(window, 500)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s found %3d objects at t=500 using %2d disk accesses (%d pages total)\n",
			idx.Kind(), len(ids), idx.IOStats().IO(), idx.Pages())
	}

	// 5. Small interval queries work the same way.
	ppr.ResetBuffer()
	ids, err := ppr.Range(window, stx.Interval{Start: 495, End: 505})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ppr    found %3d objects during [495,505) using %2d disk accesses\n",
		len(ids), ppr.IOStats().IO())
	// Output:
	// split 1000 objects into 2500 records, removing 68% of the dead space
	// ppr    found  27 objects at t=500 using  3 disk accesses (140 pages total)
	// rstar  found  27 objects at t=500 using 16 disk accesses (71 pages total)
	// ppr    found  36 objects during [495,505) using  4 disk accesses
}

// Railway: the paper's skewed workload — trains on a 22-city, 51-track
// map approximating California and New York. Demonstrates how heavily a
// skewed, piecewise-linear workload benefits from lifetime splitting, and
// how to run "where was everything around X at time T" queries.
func Example_railway() {
	// 5000 trains, up to 10 stops each, 60-75 mph, one time instant ≈ 2h.
	trains, err := stx.GenerateRailway(stx.RailwayDatasetConfig{N: 5000, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Compare the dead space of the three representations the paper pits
	// against each other.
	unsplit := stx.UnsplitRecords(trains)
	piecewise := stx.PiecewiseRecords(trains)
	budgeted, rep, err := stx.SplitDataset(trains, stx.SplitConfig{Budget: len(trains) * 3 / 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("representation      records     total volume\n")
	fmt.Printf("single MBR       %10d %16.4f\n", len(unsplit), stx.TotalVolume(unsplit))
	fmt.Printf("piecewise        %10d %16.4f\n", len(piecewise), stx.TotalVolume(piecewise))
	fmt.Printf("LAGreedy 150%%    %10d %16.4f  (%.0f%% dead space removed)\n\n",
		len(budgeted), rep.TotalVolume, 100*rep.Gain())

	idx, err := stx.BuildPPR(budgeted, stx.PPROptions{})
	if err != nil {
		log.Fatal(err)
	}

	// The map spans ~2500 miles west-east but only ~500 north-south, so
	// the unit-square normalisation leaves all of it in a low, wide band:
	// this window is the Bay Area corner of the California cluster.
	bayArea := stx.Rect{MinX: 0.0, MinY: 0.10, MaxX: 0.08, MaxY: 0.22}
	for _, at := range []int64{250, 500, 750} {
		idx.ResetBuffer()
		ids, err := idx.Snapshot(bayArea, at)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%3d: %3d trains near the Bay Area (%d disk accesses)\n",
			at, len(ids), idx.IOStats().IO())
	}

	// A small interval query: any train passing through during a 5-instant
	// (~10 hour) window.
	idx.ResetBuffer()
	ids, err := idx.Range(bayArea, stx.Interval{Start: 500, End: 505})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n[500,505): %d distinct trains passed the window (%d disk accesses)\n",
		len(ids), idx.IOStats().IO())
	// Output:
	// representation      records     total volume
	// single MBR             5000        1716.8842
	// piecewise             24078         227.5010
	// LAGreedy 150%         12500         164.3587  (90% dead space removed)
	//
	// t=250:  10 trains near the Bay Area (2 disk accesses)
	// t=500:  10 trains near the Bay Area (1 disk accesses)
	// t=750:  10 trains near the Bay Area (2 disk accesses)
	//
	// [500,505): 17 distinct trains passed the window (4 disk accesses)
}

// Chunked: operating the index over a growing history — build day one,
// persist it to disk, reload later, append day two, and query across the
// whole evolution. Partial persistence makes this natural: history is
// immutable, so appending never rewrites what was already stored.
func Example_chunked() {
	// Day one: instants [0, 1000).
	day1, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 800, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	records1, _, err := stx.SplitDataset(day1, stx.SplitConfig{Budget: 1200})
	if err != nil {
		log.Fatal(err)
	}
	idx, err := stx.BuildPPR(records1, stx.PPROptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 1 indexed: %d records, %d pages\n", idx.Records(), idx.Pages())

	// Persist the index — pages, root log and all — as if shutting down.
	var image bytes.Buffer
	if _, err := stx.EncodeIndex(&image, idx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted container: %d KiB\n", image.Len()/1024)

	// ... next morning: reload and append day two, instants [1000, 2000).
	// (With a file instead of a buffer this would be stx.SaveIndex and a
	// lazy stx.OpenIndex; appending needs the eager, writable decode.)
	reloaded, err := stx.DecodeIndex(&image)
	if err != nil {
		log.Fatal(err)
	}
	idx = reloaded.(*stx.PPRIndex)
	day2raw, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 800, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	day2 := make([]*stx.Object, len(day2raw))
	for i, o := range day2raw {
		lt := o.Lifetime()
		rects := make([]stx.Rect, o.Len())
		for j := range rects {
			r, _ := o.At(lt.Start + int64(j))
			rects[j] = r
		}
		day2[i], err = stx.NewObject(o.ID()+10000, lt.Start+1000, rects)
		if err != nil {
			log.Fatal(err)
		}
	}
	records2, _, err := stx.SplitDataset(day2, stx.SplitConfig{Budget: 1200})
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.Append(records2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 2 appended: %d records, %d pages\n", idx.Records(), idx.Pages())

	// Queries span the whole history transparently.
	window := stx.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}
	for _, at := range []int64{500, 1500} {
		idx.ResetBuffer()
		ids, err := idx.Snapshot(window, at)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%4d: %3d objects in the window (%d disk accesses)\n",
			at, len(ids), idx.IOStats().IO())
	}
	// Output:
	// day 1 indexed: 2000 records, 113 pages
	// persisted container: 178 KiB
	// day 2 appended: 4000 records, 244 pages
	// t= 500:  36 objects in the window (3 disk accesses)
	// t=1500:  27 objects in the window (3 disk accesses)
}

// Fleet: building spatiotemporal objects from your own movement data via
// the piecewise-polynomial API (§II-A of the paper), then letting the
// library choose the split budget automatically.
//
// The scenario: delivery vans that park, drive legs with smooth
// (quadratic) acceleration profiles, and park again. Parked intervals are
// perfectly tight MBRs; driving legs create dead space that splitting
// removes.
func Example_fleet() {
	rng := rand.New(rand.NewSource(99))
	vans := make([]*stx.Object, 0, 400)
	for id := int64(0); id < 400; id++ {
		van, err := makeVan(rng, id)
		if err != nil {
			log.Fatal(err)
		}
		vans = append(vans, van)
	}

	// Let the analytical cost model (§IV of the paper) pick the budget.
	chosen, table, err := stx.ChooseBudget(vans, stx.ChooseBudgetConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("budget   predicted I/O   records")
	for _, c := range table {
		marker := " "
		if c.Budget == chosen.Budget {
			marker = "*"
		}
		fmt.Printf("%s %5d %14.2f %9d\n", marker, c.Budget, c.PredictedIO, c.Records)
	}

	records, rep, err := stx.SplitDataset(vans, stx.SplitConfig{Budget: chosen.Budget})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchose %d splits: %d records, %.0f%% dead space removed\n",
		chosen.Budget, rep.Records, 100*rep.Gain())

	idx, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		log.Fatal(err)
	}
	depot := stx.Rect{MinX: 0.45, MinY: 0.45, MaxX: 0.55, MaxY: 0.55}
	idx.ResetBuffer()
	ids, err := idx.Range(depot, stx.Interval{Start: 300, End: 320})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vans near the depot during [300,320): %d (%d disk accesses)\n",
		len(ids), idx.IOStats().IO())
	// Output:
	// budget   predicted I/O   records
	//       0           3.62       400
	//     100           3.60       500
	//     200           3.55       600
	//     300           3.40       700
	//     400           3.25       800
	//     500           3.13       900
	//     600           3.03      1000
	// *   700           2.94      1100
	//     800           2.85      1200
	//
	// chose 700 splits: 1100 records, 76% dead space removed
	// vans near the depot during [300,320): 54 (10 disk accesses)
}

// makeVan builds one van: alternating parked and driving segments. Driving
// legs use a quadratic ease-in position profile — exactly the kind of
// non-linear motion the paper's general-movement algorithms target.
func makeVan(rng *rand.Rand, id int64) (*stx.Object, error) {
	const halfSize = 0.004 // a van is a small rectangle
	t := rng.Int63n(500)
	x, y := 0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64()
	var segs []stx.Segment
	for leg := 0; leg < 4; leg++ {
		// Parked: constant position.
		parked := 5 + rng.Int63n(20)
		segs = append(segs, stx.Segment{
			Start: t, End: t + parked,
			X: []float64{x}, Y: []float64{y},
			HalfW: []float64{halfSize}, HalfH: []float64{halfSize},
		})
		t += parked

		// Driving: quadratic ease toward the next stop over d instants:
		// pos(u) = from + (to-from)·(u/d)², accelerating out of the stop.
		nx, ny := 0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64()
		d := 10 + rng.Int63n(15)
		fd := float64(d)
		segs = append(segs, stx.Segment{
			Start: t, End: t + d,
			X:     []float64{x, 0, (nx - x) / (fd * fd)},
			Y:     []float64{y, 0, (ny - y) / (fd * fd)},
			HalfW: []float64{halfSize}, HalfH: []float64{halfSize},
		})
		t += d
		x, y = nx, ny
	}
	return stx.NewObjectFromSegments(id, segs)
}

// Streaming: the on-line version of the problem (the paper's stated
// future work). Observations arrive one instant at a time; the index
// decides split points without seeing the future and stays queryable
// throughout — including questions about the past while objects are still
// moving.
func Example_streaming() {
	// The "live feed": a random dataset replayed in time order.
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 800, Seed: 21, Horizon: 600})
	if err != nil {
		log.Fatal(err)
	}

	// Calibrate the online split rule to roughly the offline sweet spot
	// (150% splits = 2.5 records per object) using a small sample.
	lambda, err := stx.CalibrateLambda(objs[:100], 2.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated lambda = %.6f for ~2.5 records/object\n", lambda)

	ix, err := stx.NewStreamIndex(stx.StreamOptions{Lambda: lambda}, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Build the event stream: one observation per alive object per
	// instant, plus a finish event when an object disappears.
	type event struct {
		t     int64
		obj   int
		final bool
	}
	var events []event
	for i, o := range objs {
		lt := o.Lifetime()
		for t := lt.Start; t < lt.End; t++ {
			events = append(events, event{t: t, obj: i})
		}
		events = append(events, event{t: lt.End, obj: i, final: true})
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return events[a].final && !events[b].final
	})

	window := stx.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.5, MaxY: 0.5}
	midStreamDone := false
	for _, e := range events {
		o := objs[e.obj]
		if e.final {
			if err := ix.Finish(o.ID(), e.t); err != nil {
				log.Fatal(err)
			}
			continue
		}
		r, _ := o.At(e.t)
		if err := ix.Observe(o.ID(), e.t, r); err != nil {
			log.Fatal(err)
		}
		// Mid-stream, at t=300: ask about the present and about the past.
		if e.t == 300 && !midStreamDone {
			midStreamDone = true
			now, _ := ix.Snapshot(window, 300)
			past, _ := ix.Snapshot(window, 150)
			fmt.Printf("at t=300 (stream still running): %d objects in the window now, %d were there at t=150\n",
				len(now), len(past))
		}
	}
	if err := ix.FinishAll(600); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("stream done: %d objects -> %d records (%d online cuts), %d pages\n",
		len(objs), ix.Records(), ix.Cuts(), ix.Pages())

	// How close did the online rule get to the offline optimum? Compare
	// against the offline pipeline with the same number of splits.
	offline, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: ix.Cuts()})
	if err != nil {
		log.Fatal(err)
	}
	offIdx, err := stx.BuildPPR(offline, stx.PPROptions{})
	if err != nil {
		log.Fatal(err)
	}
	queries, err := stx.GenerateQueries(stx.QuerySnapshotMixed, 600, 5)
	if err != nil {
		log.Fatal(err)
	}
	queries = queries[:300]
	offRes, err := stx.MeasureWorkload(offIdx, queries)
	if err != nil {
		log.Fatal(err)
	}
	onIO := int64(0)
	for _, q := range queries {
		ix.ResetBuffer()
		if _, err := ix.Snapshot(q.Rect, q.Interval.Start); err != nil {
			log.Fatal(err)
		}
		onIO += ix.IOStats().IO()
	}
	fmt.Printf("mixed snapshot queries: online %.2f avg I/O vs offline %.2f (offline saw the future; gap is the price of streaming)\n",
		float64(onIO)/float64(len(queries)), offRes.AvgIO)
	// Output:
	// calibrated lambda = 0.901839 for ~2.5 records/object
	// at t=300 (stream still running): 33 objects in the window now, 56 were there at t=150
	// stream done: 800 objects -> 2100 records (1300 online cuts), 120 pages
	// mixed snapshot queries: online 3.91 avg I/O vs offline 3.10 (offline saw the future; gap is the price of streaming)
}

// Costmodel: the two §IV methods for choosing the number of splits, side
// by side — the analytical model's predictions versus the sampling
// method's measurements versus ground truth (measured on the full index).
func Example_costmodel() {
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 4000, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	budgets := []int{0, 1000, 2000, 4000, 6000}
	cfg := stx.ChooseBudgetConfig{
		Budgets:   budgets,
		Profile:   stx.QueryProfile{ExtentX: 0.02, ExtentY: 0.02, Duration: 1},
		Tolerance: 0.02,
	}

	// Method 1: the analytical model — no index is ever built.
	analytic, aTable, err := stx.ChooseBudget(objs, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Method 2: sampling — real (small) indexes over a quarter of the data.
	queries, err := stx.GenerateQueries(stx.QuerySnapshotMixed, 1000, 5)
	if err != nil {
		log.Fatal(err)
	}
	sampled, sTable, err := stx.ChooseBudgetBySampling(objs, queries[:200], cfg, 0.25, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth: build the full index per budget and measure.
	fmt.Println("budget   model-I/O   sample-I/O   measured-I/O")
	for i, budget := range budgets {
		records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: budget})
		if err != nil {
			log.Fatal(err)
		}
		idx, err := stx.BuildPPR(records, stx.PPROptions{})
		if err != nil {
			log.Fatal(err)
		}
		res, err := stx.MeasureWorkload(idx, queries[:200])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %11.2f %12.2f %14.2f\n",
			budget, aTable[i].PredictedIO, sTable[i].PredictedIO, res.AvgIO)
	}
	fmt.Printf("\nanalytical method chose %d splits, sampling chose %d\n",
		analytic.Budget, sampled.Budget)
	// Output:
	// budget   model-I/O   sample-I/O   measured-I/O
	//      0        7.25         2.96           7.83
	//   1000        7.18         2.87           7.43
	//   2000        6.57         2.81           7.03
	//   4000        5.64         2.74           6.45
	//   6000        5.04         2.62           5.86
	//
	// analytical method chose 6000 splits, sampling chose 6000
}
