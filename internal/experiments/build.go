package experiments

import (
	"time"

	stx "stindex"
)

// BuildRow records the construction cost of every index structure over
// the same record set.
type BuildRow struct {
	Size       int
	Records    int
	PPRTime    time.Duration
	RStarTime  time.Duration
	PackedTime time.Duration
	HRTime     time.Duration
	PPRPages   int
	RStarPages int
	PackedPage int
	HRPages    int
}

// Build compares construction cost and footprint of the four structures
// (PPR-tree, insertion-built 3D R*, STR-packed 3D R*, overlapping HR-tree)
// over identical LAGreedy 150% record sets — the operational view the
// paper's evaluation implies but does not tabulate.
func Build(cfg Config) ([]BuildRow, error) {
	cfg = cfg.withDefaults()
	cfg.printf("Index construction — wall time and pages (150%% splits)\n")
	cfg.printf("%8s %8s | %10s %10s %10s %10s | %7s %7s %7s %7s\n",
		"objects", "records", "PPR", "R*", "packed", "HR", "PPRpg", "R*pg", "packpg", "HRpg")
	var rows []BuildRow
	for _, n := range cfg.Sizes {
		objs, err := cfg.randomDataset(n)
		if err != nil {
			return nil, err
		}
		records := lagreedyRecords(objs, n*3/2, cfg.Parallelism)
		row := BuildRow{Size: n, Records: len(records)}

		t0 := time.Now()
		ppr, err := stx.BuildPPR(records, stx.PPROptions{})
		if err != nil {
			return nil, err
		}
		row.PPRTime, row.PPRPages = time.Since(t0), ppr.Pages()

		t0 = time.Now()
		rst, err := stx.BuildRStar(records, stx.RStarOptions{ShuffleSeed: 42})
		if err != nil {
			return nil, err
		}
		row.RStarTime, row.RStarPages = time.Since(t0), rst.Pages()

		t0 = time.Now()
		packed, err := stx.BuildRStarPacked(records, stx.RStarOptions{})
		if err != nil {
			return nil, err
		}
		row.PackedTime, row.PackedPage = time.Since(t0), packed.Pages()

		t0 = time.Now()
		hr, err := stx.BuildHR(records)
		if err != nil {
			return nil, err
		}
		row.HRTime, row.HRPages = time.Since(t0), hr.Pages()

		rows = append(rows, row)
		cfg.printf("%8d %8d | %10s %10s %10s %10s | %7d %7d %7d %7d\n",
			n, row.Records,
			row.PPRTime.Round(time.Millisecond), row.RStarTime.Round(time.Millisecond),
			row.PackedTime.Round(time.Millisecond), row.HRTime.Round(time.Millisecond),
			row.PPRPages, row.RStarPages, row.PackedPage, row.HRPages)
	}
	cfg.printf("\n")
	return rows, nil
}
