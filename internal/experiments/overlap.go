package experiments

import (
	stx "stindex"

	"stindex/internal/datagen"
)

// OverlapRow compares the two roads to partial persistence (overlapping
// HR-tree vs multi-version PPR-tree) plus the 3D R*-tree baseline on one
// dataset size.
type OverlapRow struct {
	Size                             int
	HRPages, PPRPages, RStarPages    int
	HRSnapIO, PPRSnapIO, RStarSnapIO float64
	HRRangeIO, PPRRangeIO            float64
}

// Overlap measures the paper's related-work claim (§I, citing [24]): the
// overlapping approach is easy to implement and fine for snapshots, but
// "creates a logarithmic overhead on the index storage requirements",
// while the multi-version approach stays linear in the number of changes.
// All structures index the same LAGreedy 150% record set.
func Overlap(cfg Config) ([]OverlapRow, error) {
	cfg = cfg.withDefaults()
	snapQ, err := cfg.queries(datagen.SnapshotMixed)
	if err != nil {
		return nil, err
	}
	rangeQ, err := cfg.queries(datagen.RangeSmall)
	if err != nil {
		return nil, err
	}
	snap, rng := toQueries(snapQ), toQueries(rangeQ)

	cfg.printf("Overlapping (HR) vs multi-version (PPR) vs 3D R* — 150%% splits\n")
	cfg.printf("%8s | %8s %8s %8s | %9s %9s %9s | %9s %9s\n",
		"objects", "HR pg", "PPR pg", "R* pg", "HR snap", "PPR snap", "R* snap", "HR range", "PPR range")
	var rows []OverlapRow
	for _, n := range cfg.Sizes {
		objs, err := cfg.randomDataset(n)
		if err != nil {
			return nil, err
		}
		records := lagreedyRecords(objs, n*3/2, cfg.Parallelism)

		hr, err := stx.BuildHR(records)
		if err != nil {
			return nil, err
		}
		ppr, err := stx.BuildPPR(records, stx.PPROptions{})
		if err != nil {
			return nil, err
		}
		rst, err := stx.BuildRStar(records, stx.RStarOptions{ShuffleSeed: 42})
		if err != nil {
			return nil, err
		}

		row := OverlapRow{Size: n, HRPages: hr.Pages(), PPRPages: ppr.Pages(), RStarPages: rst.Pages()}
		for _, m := range []struct {
			idx stx.Index
			io  *float64
			qs  []stx.Query
		}{
			{hr, &row.HRSnapIO, snap},
			{ppr, &row.PPRSnapIO, snap},
			{rst, &row.RStarSnapIO, snap},
			{hr, &row.HRRangeIO, rng},
			{ppr, &row.PPRRangeIO, rng},
		} {
			res, err := stx.MeasureWorkloadParallel(m.idx, m.qs, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			*m.io = res.AvgIO
		}
		rows = append(rows, row)
		cfg.printf("%8d | %8d %8d %8d | %9.2f %9.2f %9.2f | %9.2f %9.2f\n",
			n, row.HRPages, row.PPRPages, row.RStarPages,
			row.HRSnapIO, row.PPRSnapIO, row.RStarSnapIO,
			row.HRRangeIO, row.PPRRangeIO)
	}
	cfg.printf("\n")
	return rows, nil
}
