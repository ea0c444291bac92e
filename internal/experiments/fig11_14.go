package experiments

import (
	"time"

	"stindex/internal/alloc"
	"stindex/internal/datagen"
	"stindex/internal/split"
)

// Fig11Row compares the CPU time of the single-object splitters on one
// random dataset: computing the best splits of every object, "using as
// many splits as necessary" (the full volume curve per object).
type Fig11Row struct {
	Size      int
	DPTime    time.Duration
	MergeTime time.Duration
}

// Fig11 regenerates figure 11 (CPU time for object split algorithms,
// random datasets). The paper's headline: MergeSplit runs orders of
// magnitude faster than DPSplit.
func Fig11(cfg Config) ([]Fig11Row, error) {
	cfg = cfg.withDefaults()
	cfg.printf("Figure 11 — CPU time, single-object splitting (random datasets)\n")
	cfg.printf("%8s %14s %14s %8s\n", "objects", "DPSplit", "MergeSplit", "ratio")
	var rows []Fig11Row
	for _, n := range cfg.Sizes {
		objs, err := cfg.randomDataset(n)
		if err != nil {
			return nil, err
		}
		dpTime, err := timed(func() error {
			for _, o := range objs {
				split.DPPlan(o, nil)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		mergeTime, err := timed(func() error {
			for _, o := range objs {
				split.MergePlan(o, nil)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig11Row{Size: n, DPTime: dpTime, MergeTime: mergeTime})
		cfg.printf("%8d %14s %14s %7.1fx\n", n, dpTime.Round(time.Millisecond),
			mergeTime.Round(time.Millisecond), float64(dpTime)/float64(mergeTime))
	}
	cfg.printf("\n")
	return rows, nil
}

// Fig12Row compares the total volume after optimally distributing 50%
// splits over curves produced by each single-object splitter.
type Fig12Row struct {
	Size        int
	DPVolume    float64
	MergeVolume float64
}

// Fig12 regenerates figure 12 (total volume for object split algorithms,
// random datasets, 50% splits optimally distributed). Headline: MergeSplit
// gives very similar volumes to DPSplit.
func Fig12(cfg Config) ([]Fig12Row, error) {
	cfg = cfg.withDefaults()
	cfg.printf("Figure 12 — total volume after 50%% splits, optimal distribution\n")
	cfg.printf("%8s %14s %14s %10s\n", "objects", "DPSplit", "MergeSplit", "overhead")
	var rows []Fig12Row
	for _, n := range cfg.Sizes {
		objs, err := cfg.randomDataset(n)
		if err != nil {
			return nil, err
		}
		budget := n / 2
		dpCurves := alloc.PlanCurves(objs, split.DPPlan, nil, cfg.Parallelism)
		mergeCurves := alloc.PlanCurves(objs, split.MergePlan, nil, cfg.Parallelism)
		dpVol := alloc.Optimal(dpCurves, budget).Volume
		mergeVol := alloc.Optimal(mergeCurves, budget).Volume
		rows = append(rows, Fig12Row{Size: n, DPVolume: dpVol, MergeVolume: mergeVol})
		cfg.printf("%8d %14.4f %14.4f %9.2f%%\n", n, dpVol, mergeVol, 100*(mergeVol/dpVol-1))
	}
	cfg.printf("\n")
	return rows, nil
}

// Fig13Row compares the CPU time of the split distribution algorithms at
// a 50% budget.
type Fig13Row struct {
	Size         int
	OptimalTime  time.Duration
	GreedyTime   time.Duration
	LAGreedyTime time.Duration
}

// Fig13 regenerates figure 13 (CPU time for split distribution, random
// datasets, 50% splits). Headline: the greedy algorithms run orders of
// magnitude faster than Optimal; LAGreedy costs only ~10% more than
// Greedy.
func Fig13(cfg Config) ([]Fig13Row, error) {
	cfg = cfg.withDefaults()
	cfg.printf("Figure 13 — CPU time, split distribution (50%% splits)\n")
	cfg.printf("%8s %14s %14s %14s\n", "objects", "Optimal", "Greedy", "LAGreedy")
	var rows []Fig13Row
	for _, n := range cfg.Sizes {
		objs, err := cfg.randomDataset(n)
		if err != nil {
			return nil, err
		}
		budget := n / 2
		curves := alloc.PlanCurves(objs, split.MergePlan, nil, cfg.Parallelism)
		optTime, _ := timed(func() error { alloc.Optimal(curves, budget); return nil })
		gTime, _ := timed(func() error { alloc.Greedy(curves, budget); return nil })
		laTime, _ := timed(func() error { alloc.LAGreedy(curves, budget); return nil })
		rows = append(rows, Fig13Row{Size: n, OptimalTime: optTime, GreedyTime: gTime, LAGreedyTime: laTime})
		cfg.printf("%8d %14s %14s %14s\n", n,
			optTime.Round(time.Microsecond), gTime.Round(time.Microsecond), laTime.Round(time.Microsecond))
	}
	cfg.printf("\n")
	return rows, nil
}

// Fig14Row compares the distribution algorithms by actual query cost:
// 150% splits, PPR-tree, mixed snapshot queries.
type Fig14Row struct {
	Size                      int
	OptimalIO, GreedyIO, LAIO float64
}

// Fig14 regenerates figure 14 (mixed snapshot queries, random datasets):
// average disk accesses when the 150% split budget is distributed by each
// algorithm and the records are indexed with a PPR-tree. Headline:
// LAGreedy matches Optimal; Greedy is consistently worse.
func Fig14(cfg Config) ([]Fig14Row, error) {
	cfg = cfg.withDefaults()
	cfg.printf("Figure 14 — mixed snapshot queries, avg disk accesses (150%% splits, PPR-tree)\n")
	cfg.printf("%8s %10s %10s %10s\n", "objects", "Optimal", "Greedy", "LAGreedy")
	qs, err := cfg.queries(datagen.SnapshotMixed)
	if err != nil {
		return nil, err
	}
	queries := toQueries(qs)
	var rows []Fig14Row
	for _, n := range cfg.Sizes {
		objs, err := cfg.randomDataset(n)
		if err != nil {
			return nil, err
		}
		budget := n * 3 / 2
		curves := alloc.PlanCurves(objs, split.MergePlan, nil, cfg.Parallelism)
		row := Fig14Row{Size: n}
		for _, alg := range []struct {
			name string
			run  func() alloc.Assignment
			dst  *float64
		}{
			{"optimal", func() alloc.Assignment { return alloc.Optimal(curves, budget) }, &row.OptimalIO},
			{"greedy", func() alloc.Assignment { return alloc.Greedy(curves, budget) }, &row.GreedyIO},
			{"lagreedy", func() alloc.Assignment { return alloc.LAGreedy(curves, budget) }, &row.LAIO},
		} {
			records := assignedRecords(curves, alg.run(), cfg.Parallelism)
			res, _, err := measurePPR(records, queries, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			*alg.dst = res.AvgIO
		}
		rows = append(rows, row)
		cfg.printf("%8d %10.2f %10.2f %10.2f\n", n, row.OptimalIO, row.GreedyIO, row.LAIO)
	}
	cfg.printf("\n")
	return rows, nil
}
