package experiments

import (
	"stindex/internal/alloc"
	"stindex/internal/datagen"
	"stindex/internal/split"
)

// Fig14CommuterRow compares the distribution algorithms on the commuter
// workload at one budget: total volumes plus PPR-tree query cost.
type Fig14CommuterRow struct {
	BudgetPct                int
	GreedyVol, LAVol, OptVol float64
	GreedyIO, LAIO, OptIO    float64
}

// Fig14Commuter is a supplementary experiment sharpening figure 14's
// claim ("the Greedy approach was always inferior"): the uniform random
// datasets barely separate the algorithms, but a workload rich in
// out-and-back (tent) trajectories — where the monotonicity property of
// Claim 1 fails for almost half the objects — shows Greedy losing several
// percent of volume and measurable query I/O while LAGreedy stays on top
// of Optimal.
func Fig14Commuter(cfg Config) ([]Fig14CommuterRow, error) {
	cfg = cfg.withDefaults()
	n := cfg.Sizes[len(cfg.Sizes)-1]
	objs, err := datagen.Commuter(datagen.CommuterConfig{N: n, Horizon: horizon, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	qs, err := cfg.queries(datagen.SnapshotMixed)
	if err != nil {
		return nil, err
	}
	queries := toQueries(qs)
	curves := alloc.PlanCurves(objs, split.MergePlan, nil, cfg.Parallelism)

	cfg.printf("Figure 14 (commuter supplement) — %d objects, mixed snapshot queries\n", n)
	cfg.printf("%8s %12s %12s %12s %10s %10s %10s\n",
		"splits", "Greedy vol", "LAGr vol", "Opt vol", "Greedy IO", "LAGr IO", "Opt IO")
	var rows []Fig14CommuterRow
	for _, pct := range []int{25, 50, 100, 150} {
		budget := n * pct / 100
		row := Fig14CommuterRow{BudgetPct: pct}
		for _, alg := range []struct {
			a   alloc.Assignment
			vol *float64
			io  *float64
		}{
			{alloc.Greedy(curves, budget), &row.GreedyVol, &row.GreedyIO},
			{alloc.LAGreedy(curves, budget), &row.LAVol, &row.LAIO},
			{alloc.Optimal(curves, budget), &row.OptVol, &row.OptIO},
		} {
			*alg.vol = alg.a.Volume
			records := assignedRecords(curves, alg.a, cfg.Parallelism)
			res, _, err := measurePPR(records, queries, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			*alg.io = res.AvgIO
		}
		rows = append(rows, row)
		cfg.printf("%7d%% %12.2f %12.2f %12.2f %10.2f %10.2f %10.2f\n",
			pct, row.GreedyVol, row.LAVol, row.OptVol, row.GreedyIO, row.LAIO, row.OptIO)
	}
	cfg.printf("\n")
	return rows, nil
}
