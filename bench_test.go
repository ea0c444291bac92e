// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results). Each benchmark runs the corresponding experiment driver at a
// reduced default scale and reports the figure's headline quantity as a
// custom metric; `go test -bench . -benchmem` therefore reproduces the
// whole evaluation. Full published scale: cmd/stbench -full.
package stindex_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	stx "stindex"

	"stindex/internal/alloc"
	"stindex/internal/datagen"
	"stindex/internal/experiments"
	"stindex/internal/pagefile"
	"stindex/internal/split"
)

// benchConfig keeps each figure's bench in the seconds range.
func benchConfig() experiments.Config {
	return experiments.Config{Sizes: []int{400, 800, 1600}, Queries: 200, Seed: 1}
}

func BenchmarkTable1Datasets(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2QuerySets(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11SplitCPU(b *testing.B) {
	cfg := benchConfig()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		ratio = float64(last.DPTime) / float64(last.MergeTime)
	}
	b.ReportMetric(ratio, "dp/merge-cpu-ratio")
}

func BenchmarkFig12SplitVolume(b *testing.B) {
	cfg := benchConfig()
	cfg.Sizes = []int{400, 800}
	var overhead float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		overhead = 100 * (last.MergeVolume/last.DPVolume - 1)
	}
	b.ReportMetric(overhead, "merge-overhead-%")
}

func BenchmarkFig13DistributionCPU(b *testing.B) {
	cfg := benchConfig()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		ratio = float64(last.OptimalTime) / float64(last.GreedyTime)
	}
	b.ReportMetric(ratio, "optimal/greedy-cpu-ratio")
}

func BenchmarkFig14DistributionIO(b *testing.B) {
	cfg := benchConfig()
	cfg.Sizes = []int{800}
	var la, greedy float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14(cfg)
		if err != nil {
			b.Fatal(err)
		}
		la, greedy = rows[0].LAIO, rows[0].GreedyIO
	}
	b.ReportMetric(la, "lagreedy-avg-io")
	b.ReportMetric(greedy, "greedy-avg-io")
}

func BenchmarkFig15SplitSweep(b *testing.B) {
	cfg := benchConfig()
	var pprGain, rstarLoss float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15(cfg)
		if err != nil {
			b.Fatal(err)
		}
		first, last := rows[0], rows[len(rows)-1]
		pprGain = 100 * (1 - last.PPRIO/first.PPRIO)
		rstarLoss = 100 * (last.RStarIO/first.RStarIO - 1)
	}
	b.ReportMetric(pprGain, "ppr-io-gain-%")
	b.ReportMetric(rstarLoss, "rstar-io-loss-%")
}

func BenchmarkFig16Space(b *testing.B) {
	cfg := benchConfig()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		ratio = float64(last.PPRPages) / float64(last.RStarPages)
	}
	b.ReportMetric(ratio, "ppr/rstar-space-ratio")
}

func BenchmarkFig17SmallRange(b *testing.B) {
	cfg := benchConfig()
	cfg.Sizes = []int{800, 1600}
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig17(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		speedup = last.RStar1 / last.PPR150
	}
	b.ReportMetric(speedup, "ppr-vs-rstar-speedup")
}

func BenchmarkFig18MixedSnapshot(b *testing.B) {
	cfg := benchConfig()
	cfg.Sizes = []int{800, 1600}
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig18(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		speedup = last.RStar1 / last.PPR150
	}
	b.ReportMetric(speedup, "ppr-vs-rstar-speedup")
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

func benchObjects(b *testing.B, n int) []*stx.Object {
	b.Helper()
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: n, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return objs
}

// BenchmarkAblationLookahead sweeps the LAGreedy look-ahead depth,
// reporting the volume each depth reaches (depth 2 is the paper's).
func BenchmarkAblationLookahead(b *testing.B) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 1000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	curves := alloc.PlanCurves(objs, split.MergePlan, nil, 0)
	budget := 1500
	for _, depth := range []int{1, 2, 3, 4} {
		depth := depth
		b.Run(map[int]string{1: "depth1", 2: "depth2", 3: "depth3", 4: "depth4"}[depth], func(b *testing.B) {
			var vol float64
			for i := 0; i < b.N; i++ {
				vol = alloc.LAGreedyDepth(curves, budget, depth).Volume
			}
			b.ReportMetric(vol, "total-volume")
		})
	}
}

// BenchmarkAblationVersionParams sweeps the PPR-tree's strong version
// overflow/underflow parameters around the paper's values and reports the
// query cost and space of each setting.
func BenchmarkAblationVersionParams(b *testing.B) {
	objs := benchObjects(b, 800)
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 1200})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := stx.GenerateQueries(stx.QuerySnapshotMixed, 1000, 9)
	if err != nil {
		b.Fatal(err)
	}
	queries = queries[:150]
	for _, p := range []struct {
		name     string
		svo, svu float64
	}{
		{"paper-0.8-0.4", 0.8, 0.4},
		{"tight-0.9-0.3", 0.9, 0.3},
		{"loose-0.7-0.5", 0.7, 0.5},
	} {
		p := p
		b.Run(p.name, func(b *testing.B) {
			var avgIO float64
			var pages int
			for i := 0; i < b.N; i++ {
				idx, err := stx.BuildPPR(records, stx.PPROptions{PSvo: p.svo, PSvu: p.svu})
				if err != nil {
					b.Fatal(err)
				}
				res, err := stx.MeasureWorkload(idx, queries)
				if err != nil {
					b.Fatal(err)
				}
				avgIO = res.AvgIO
				pages = idx.Pages()
			}
			b.ReportMetric(avgIO, "avg-io")
			b.ReportMetric(float64(pages), "pages")
		})
	}
}

// BenchmarkAblationBufferSize shows how the measured I/O depends on the
// LRU pool size (the paper fixes 10 pages).
func BenchmarkAblationBufferSize(b *testing.B) {
	objs := benchObjects(b, 800)
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 1200})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := stx.GenerateQueries(stx.QueryRangeSmall, 1000, 11)
	if err != nil {
		b.Fatal(err)
	}
	queries = queries[:150]
	for _, pages := range []int{1, 10, 50} {
		pages := pages
		b.Run(map[int]string{1: "buf1", 10: "buf10", 50: "buf50"}[pages], func(b *testing.B) {
			idx, err := stx.BuildPPR(records, stx.PPROptions{BufferPages: pages})
			if err != nil {
				b.Fatal(err)
			}
			var avgIO float64
			for i := 0; i < b.N; i++ {
				res, err := stx.MeasureWorkload(idx, queries)
				if err != nil {
					b.Fatal(err)
				}
				avgIO = res.AvgIO
			}
			b.ReportMetric(avgIO, "avg-io")
		})
	}
}

// BenchmarkAblationTimeScale compares the paper's unit-scaled time axis
// for the 3D R*-tree against an unscaled axis (time in raw instants),
// which bloats the time dimension and degrades the spatial split quality.
func BenchmarkAblationTimeScale(b *testing.B) {
	objs := benchObjects(b, 800)
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 8})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := stx.GenerateQueries(stx.QueryRangeSmall, 1000, 13)
	if err != nil {
		b.Fatal(err)
	}
	queries = queries[:150]
	for _, c := range []struct {
		name  string
		scale float64
	}{
		{"unit-scaled", 0},  // default: horizon -> [0,1]
		{"raw-instants", 1}, // one unit per instant
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			idx, err := stx.BuildRStar(records, stx.RStarOptions{TimeScale: c.scale, ShuffleSeed: 42})
			if err != nil {
				b.Fatal(err)
			}
			var avgIO float64
			for i := 0; i < b.N; i++ {
				res, err := stx.MeasureWorkload(idx, queries)
				if err != nil {
					b.Fatal(err)
				}
				avgIO = res.AvgIO
			}
			b.ReportMetric(avgIO, "avg-io")
		})
	}
}

// BenchmarkAblationObjective compares the §III volume objective against
// the §IV query-cost objective on measured I/O, for a wide-window
// workload where the two objectives disagree most.
func BenchmarkAblationObjective(b *testing.B) {
	objs := benchObjects(b, 800)
	queries, err := stx.GenerateQueries(stx.QuerySnapshotLarge, 1000, 29)
	if err != nil {
		b.Fatal(err)
	}
	queries = queries[:150]
	profile := &stx.QueryProfile{ExtentX: 0.03, ExtentY: 0.03, Duration: 1}
	for _, c := range []struct {
		name string
		cfg  stx.SplitConfig
	}{
		{"volume-objective", stx.SplitConfig{Budget: 1200}},
		{"query-objective", stx.SplitConfig{Budget: 1200, QueryAware: profile}},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var avgIO float64
			for i := 0; i < b.N; i++ {
				records, _, err := stx.SplitDataset(objs, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				idx, err := stx.BuildPPR(records, stx.PPROptions{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := stx.MeasureWorkload(idx, queries)
				if err != nil {
					b.Fatal(err)
				}
				avgIO = res.AvgIO
			}
			b.ReportMetric(avgIO, "avg-io")
		})
	}
}

// BenchmarkOverlappingVsPPR reproduces the related-work comparison of the
// two roads to partial persistence (experiment "overlap"): the
// overlapping HR-tree pays a large storage factor and loses interval
// queries; the multi-version PPR-tree stays linear in the changes.
func BenchmarkOverlappingVsPPR(b *testing.B) {
	cfg := benchConfig()
	cfg.Sizes = []int{800}
	var spaceRatio, rangeRatio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Overlap(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		spaceRatio = float64(r.HRPages) / float64(r.PPRPages)
		rangeRatio = r.HRRangeIO / r.PPRRangeIO
	}
	b.ReportMetric(spaceRatio, "hr/ppr-space-ratio")
	b.ReportMetric(rangeRatio, "hr/ppr-range-io-ratio")
}

// BenchmarkAblationPacking measures the paper's decision not to pack the
// R*-tree: STR bulk loading builds far faster but does not query better
// on split moving-object records ("packing does not help substantially
// with datasets of moving objects").
func BenchmarkAblationPacking(b *testing.B) {
	objs := benchObjects(b, 800)
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 1200})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := stx.GenerateQueries(stx.QueryRangeSmall, 1000, 19)
	if err != nil {
		b.Fatal(err)
	}
	queries = queries[:150]
	b.Run("rstar-insert", func(b *testing.B) {
		var avgIO float64
		for i := 0; i < b.N; i++ {
			idx, err := stx.BuildRStar(records, stx.RStarOptions{ShuffleSeed: 42})
			if err != nil {
				b.Fatal(err)
			}
			res, err := stx.MeasureWorkload(idx, queries)
			if err != nil {
				b.Fatal(err)
			}
			avgIO = res.AvgIO
		}
		b.ReportMetric(avgIO, "avg-io")
	})
	b.Run("rstar-packed", func(b *testing.B) {
		var avgIO float64
		for i := 0; i < b.N; i++ {
			idx, err := stx.BuildRStarPacked(records, stx.RStarOptions{})
			if err != nil {
				b.Fatal(err)
			}
			res, err := stx.MeasureWorkload(idx, queries)
			if err != nil {
				b.Fatal(err)
			}
			avgIO = res.AvgIO
		}
		b.ReportMetric(avgIO, "avg-io")
	})
}

// buildHybridPair indexes the records with both of the paper's
// structures, the two trees the MV3R-style hybrid routes between.
func buildHybridPair(tb testing.TB, records []stx.Record) (*stx.PPRIndex, *stx.RStarIndex) {
	tb.Helper()
	ppr, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		tb.Fatal(err)
	}
	rst, err := stx.BuildRStar(records, stx.RStarOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return ppr, rst
}

// routeByDuration is the hybrid's one rule, after the MV3R-tree (the
// paper's reference [25]): a query of at most 50 instants — the longest
// duration in the paper's query sets, where the PPR-tree still wins —
// goes to the partially persistent tree, a longer one to the 3D R*-tree,
// which reads each record once instead of walking many versions.
func routeByDuration(ppr, rst stx.Index, iv stx.Interval) stx.Index {
	if iv.End-iv.Start <= 50 {
		return ppr
	}
	return rst
}

// BenchmarkHybridDurationSweep sweeps the query duration to show the
// crossover motivating the MV3R-style hybrid: the PPR-tree wins short
// intervals, the 3D R*-tree wins very long ones, and routing by duration
// tracks the winner on both sides.
func BenchmarkHybridDurationSweep(b *testing.B) {
	objs := benchObjects(b, 800)
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 1200})
	if err != nil {
		b.Fatal(err)
	}
	ppr, rst := buildHybridPair(b, records)
	rng := rand.New(rand.NewSource(23))
	for _, dur := range []int64{1, 10, 50, 250, 800} {
		dur := dur
		b.Run(map[int64]string{1: "dur1", 10: "dur10", 50: "dur50", 250: "dur250", 800: "dur800"}[dur], func(b *testing.B) {
			var pprIO, rstIO, hybIO float64
			coldIO := func(idx stx.Index, q stx.Query) int64 {
				idx.ResetBuffer()
				if _, err := idx.Range(q.Rect, q.Interval); err != nil {
					b.Fatal(err)
				}
				return idx.IOStats().IO()
			}
			queries := make([]stx.Query, 100)
			for i := range queries {
				x, y := rng.Float64()*0.95, rng.Float64()*0.95
				start := rng.Int63n(1000 - dur + 1)
				queries[i] = stx.Query{
					Rect:     stx.Rect{MinX: x, MinY: y, MaxX: x + 0.03, MaxY: y + 0.03},
					Interval: stx.Interval{Start: start, End: start + dur},
				}
			}
			for i := 0; i < b.N; i++ {
				var p, r, h int64
				for _, q := range queries {
					p += coldIO(ppr, q)
					r += coldIO(rst, q)
					h += coldIO(routeByDuration(ppr, rst, q.Interval), q)
				}
				pprIO = float64(p) / float64(len(queries))
				rstIO = float64(r) / float64(len(queries))
				hybIO = float64(h) / float64(len(queries))
			}
			b.ReportMetric(pprIO, "ppr-avg-io")
			b.ReportMetric(rstIO, "rstar-avg-io")
			b.ReportMetric(hybIO, "hybrid-avg-io")
		})
	}
}

// BenchmarkStreamingVsOffline compares the online indexer against the
// offline pipeline at a matched number of splits — the cost of not seeing
// the future.
func BenchmarkStreamingVsOffline(b *testing.B) {
	objs := benchObjects(b, 600)
	lambda, err := stx.CalibrateLambda(objs[:100], 2.5)
	if err != nil {
		b.Fatal(err)
	}
	type ev struct {
		t     int64
		obj   int
		final bool
	}
	var events []ev
	for i, o := range objs {
		lt := o.Lifetime()
		for tm := lt.Start; tm < lt.End; tm++ {
			events = append(events, ev{t: tm, obj: i})
		}
		events = append(events, ev{t: lt.End, obj: i, final: true})
	}
	sort.SliceStable(events, func(a, c int) bool {
		if events[a].t != events[c].t {
			return events[a].t < events[c].t
		}
		return events[a].final && !events[c].final
	})
	var streamVol float64
	b.Run("stream-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			six, err := stx.NewStreamIndex(stx.StreamOptions{Lambda: lambda}, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range events {
				o := objs[e.obj]
				if e.final {
					if err := six.Finish(o.ID(), e.t); err != nil {
						b.Fatal(err)
					}
					continue
				}
				r, _ := o.At(e.t)
				if err := six.Observe(o.ID(), e.t, r); err != nil {
					b.Fatal(err)
				}
			}
			streamVol = float64(six.Records())
		}
		b.ReportMetric(streamVol, "records")
	})
	b.Run("offline-build", func(b *testing.B) {
		var records int
		for i := 0; i < b.N; i++ {
			recs, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 900})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := stx.BuildPPR(recs, stx.PPROptions{}); err != nil {
				b.Fatal(err)
			}
			records = len(recs)
		}
		b.ReportMetric(float64(records), "records")
	})
}

// BenchmarkIndexBuild measures raw build throughput of both structures.
func BenchmarkIndexBuild(b *testing.B) {
	objs := benchObjects(b, 1000)
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 1500})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ppr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stx.BuildPPR(records, stx.PPROptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rstar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stx.BuildRStar(records, stx.RStarOptions{ShuffleSeed: 42}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSplitDataset is the split half of the offline build at the
// benchmark's scale and beyond: 12 000 random objects (≈600k instants), a
// 150% budget, merge plans + LAGreedy, on one and on two workers.
func BenchmarkSplitDataset(b *testing.B) {
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 12000, Horizon: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 18000, Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChooseBudgetBySampling runs the §IV sampling chooser over five
// candidate budgets (0–200%) on a half sample of 4 000 objects: one
// planning pass, then a distribute / materialise / BuildPPR / measure
// round per budget.
func BenchmarkChooseBudgetBySampling(b *testing.B) {
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 4000, Horizon: 1000, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := stx.GenerateQueries(stx.QuerySnapshotMixed, 1000, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := stx.ChooseBudgetConfig{Budgets: []int{0, 2000, 4000, 6000, 8000}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := stx.ChooseBudgetBySampling(objs, queries[:100], cfg, 0.5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryThroughput measures raw query latency (warm buffer) on
// both structures.
func BenchmarkQueryThroughput(b *testing.B) {
	objs := benchObjects(b, 1000)
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 1500})
	if err != nil {
		b.Fatal(err)
	}
	ppr, err := stx.BuildPPR(records, stx.PPROptions{BufferPages: 128})
	if err != nil {
		b.Fatal(err)
	}
	rst, err := stx.BuildRStar(records, stx.RStarOptions{BufferPages: 128, ShuffleSeed: 42})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	mkQuery := func() stx.Query {
		x, y := rng.Float64()*0.95, rng.Float64()*0.95
		t := rng.Int63n(1000)
		return stx.Query{
			Rect:     stx.Rect{MinX: x, MinY: y, MaxX: x + 0.05, MaxY: y + 0.05},
			Interval: stx.Interval{Start: t, End: t + 1},
		}
	}
	b.Run("ppr-snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stx.RunQuery(ppr, mkQuery()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rstar-snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stx.RunQuery(rst, mkQuery()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMeasureWorkloadParallel measures the full workload-measurement
// loop — cold buffer per query, exact I/O accounting — across worker
// counts. The averages are bit-identical for every setting; only the wall
// clock changes (on a multi-core machine).
func BenchmarkMeasureWorkloadParallel(b *testing.B) {
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 1500, Horizon: 1000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 2250})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := stx.GenerateQueries(stx.QuerySnapshotMixed, 1000, 5)
	if err != nil {
		b.Fatal(err)
	}
	var base stx.WorkloadResult
	for _, workers := range []int{1, 2, 4, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := stx.MeasureWorkloadParallel(idx, queries, workers)
				if err != nil {
					b.Fatal(err)
				}
				if workers == 1 {
					base = res
				} else if base.Queries > 0 && res != base {
					b.Fatalf("workers=%d changed the result: %+v vs %+v", workers, res, base)
				}
			}
			b.ReportMetric(base.AvgIO, "avg-io")
		})
	}
}

// reopenCompressed saves idx under the compressed codec and reopens the
// container lazily with the given read flavour; the benchmark's cleanup
// closes it.
func reopenCompressed(b *testing.B, idx stx.Index, backend stx.Backend) stx.Index {
	b.Helper()
	path := filepath.Join(b.TempDir(), "idx.sti")
	if err := stx.SaveIndexOptions(path, idx, stx.SaveOptions{Codec: stx.CodecCompressed}); err != nil {
		b.Fatal(err)
	}
	opened, err := stx.OpenIndexOptions(path, stx.OpenOptions{Backend: backend})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { stx.CloseIndex(opened) })
	return opened
}

// coldBenchRecords is the record set behind the two cold-read benchmarks:
// 8 000 random objects split at a 150% budget.
func coldBenchRecords(b *testing.B) []stx.Record {
	b.Helper()
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 8000, Horizon: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 12000})
	if err != nil {
		b.Fatal(err)
	}
	return records
}

// BenchmarkDecodePage is the cost of one pool miss over a compressed
// container, less the read syscall: every live page of a built, saved and
// mapped tree of each layout read through its store — a copy out of the
// mapping and the codec decode. Built pages, not random ones: neighbours
// in a packed or time-ordered node XOR to short coordinates, and the
// decoder's cost follows their lengths.
func BenchmarkDecodePage(b *testing.B) {
	records := coldBenchRecords(b)
	for _, kind := range []struct {
		name  string
		store func() pagefile.Store
	}{
		{"rstar", func() pagefile.Store {
			idx, err := stx.BuildRStarPacked(records, stx.RStarOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return reopenCompressed(b, idx, stx.BackendMmap).(*stx.RStarIndex).Tree().Store()
		}},
		{"ppr", func() pagefile.Store {
			idx, err := stx.BuildPPR(records, stx.PPROptions{})
			if err != nil {
				b.Fatal(err)
			}
			return reopenCompressed(b, idx, stx.BackendMmap).(*stx.PPRIndex).Tree().Store()
		}},
	} {
		b.Run(kind.name, func(b *testing.B) {
			store := kind.store()
			var live []pagefile.PageID
			for id := 0; id < store.NumAllocated(); id++ {
				if store.Check(pagefile.PageID(id)) == nil {
					live = append(live, pagefile.PageID(id))
				}
			}
			page := make([]byte, store.PageSize())
			b.SetBytes(int64(len(page)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := store.ReadPage(live[i%len(live)], page); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdRange is serve-cold's query in process: a packed R*-tree
// in a compressed container opened for positioned reads, the ten-page
// buffer reset before each query, so every node visited is a pread and a
// decode. One operation is one pass over a fixed list shaped like the
// benchmark's — wide snapshot windows alternating with narrower ranges of
// up to a tenth of the horizon.
func BenchmarkColdRange(b *testing.B) {
	built, err := stx.BuildRStarPacked(coldBenchRecords(b), stx.RStarOptions{})
	if err != nil {
		b.Fatal(err)
	}
	idx := reopenCompressed(b, built, stx.BackendDisk)
	rng := rand.New(rand.NewSource(3))
	window := func(lo, hi float64) stx.Rect {
		w, h := lo+rng.Float64()*(hi-lo), lo+rng.Float64()*(hi-lo)
		x, y := rng.Float64()*(1-w), rng.Float64()*(1-h)
		return stx.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	}
	queries := make([]stx.Query, 64)
	for i := range queries {
		if i%2 == 0 {
			t := rng.Int63n(1000)
			queries[i] = stx.Query{Rect: window(0.3, 0.6), Interval: stx.Interval{Start: t, End: t + 1}}
		} else {
			d := 40 + rng.Int63n(61)
			t := rng.Int63n(1000 - d)
			queries[i] = stx.Query{Rect: window(0.08, 0.2), Interval: stx.Interval{Start: t, End: t + d}}
		}
	}
	ids, reads := 0, int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, reads = 0, 0
		for _, q := range queries {
			idx.ResetBuffer() // empties the pool and zeroes its counters
			got, err := idx.Range(q.Rect, q.Interval)
			if err != nil {
				b.Fatal(err)
			}
			ids += len(got)
			reads += idx.IOStats().Reads
		}
	}
	b.ReportMetric(float64(reads)/float64(len(queries)), "reads/query")
	b.ReportMetric(float64(ids)/float64(len(queries)), "ids/query")
}
