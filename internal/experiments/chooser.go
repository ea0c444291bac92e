package experiments

import (
	stx "stindex"

	"stindex/internal/datagen"
)

// ChooserRow compares, for one split budget, the §IV cost predictions
// against the ground truth measured on a real index.
type ChooserRow struct {
	BudgetPct  int
	ModelIO    float64 // analytical prediction (§IV method 1)
	SampleIO   float64 // measured on a 50% sample (§IV method 2)
	MeasuredIO float64 // measured on the full index
}

// Chooser evaluates §IV's two methods for picking the number of splits:
// the analytical model and the sampling method, against ground truth
// (building the full index per budget and measuring the small snapshot
// workload). What must hold is ordinal agreement — all three curves
// decrease along the budget axis and their minima land in the same
// region — not absolute equality: the model predicts node accesses of an
// idealised tree, the sample sees a quarter of the data.
func Chooser(cfg Config) ([]ChooserRow, error) {
	cfg = cfg.withDefaults()
	// The analytical model discriminates budgets through the alive
	// records' average extents; with too few alive records per instant
	// every access probability clamps at 1 and the prediction saturates.
	// Use a denser evolution (longer lifetimes) than the headline figures.
	n := cfg.Sizes[len(cfg.Sizes)-1] * 2
	objsInternal, err := datagen.Random(datagen.RandomConfig{
		N: n, Horizon: horizon, Seed: cfg.Seed + int64(n),
		MaxLifetime: 250,
	})
	if err != nil {
		return nil, err
	}
	// The chooser APIs live on the public facade; rebuild facade objects
	// from the same instants.
	objs := make([]*stx.Object, len(objsInternal))
	for i, o := range objsInternal {
		rects := make([]stx.Rect, o.Len())
		for j := 0; j < o.Len(); j++ {
			r := o.InstantRect(j)
			rects[j] = stx.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
		}
		po, err := stx.NewObject(o.ID, o.Start(), rects)
		if err != nil {
			return nil, err
		}
		objs[i] = po
	}

	pcts := []int{0, 25, 50, 100, 150}
	budgets := make([]int, len(pcts))
	for i, p := range pcts {
		budgets[i] = n * p / 100
	}
	profile := stx.QueryProfile{ExtentX: 0.02, ExtentY: 0.02, Duration: 1}
	ccfg := stx.ChooseBudgetConfig{Budgets: budgets, Profile: profile}

	_, modelTable, err := stx.ChooseBudget(objs, ccfg)
	if err != nil {
		return nil, err
	}
	queries, err := cfg.queries("snapshot-mixed")
	if err != nil {
		return nil, err
	}
	pub := toQueries(queries)
	_, sampleTable, err := stx.ChooseBudgetBySampling(objs, pub, ccfg, 0.5, cfg.Seed)
	if err != nil {
		return nil, err
	}

	cfg.printf("§IV chooser — predicted vs measured avg I/O (%d random objects)\n", n)
	cfg.printf("%8s %10s %10s %10s\n", "splits", "model", "sample", "measured")
	rows := make([]ChooserRow, len(pcts))
	for i, budget := range budgets {
		records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: budget})
		if err != nil {
			return nil, err
		}
		res, _, err := measurePPR(records, pub, cfg.Parallelism)
		if err != nil {
			return nil, err
		}
		rows[i] = ChooserRow{
			BudgetPct:  pcts[i],
			ModelIO:    modelTable[i].PredictedIO,
			SampleIO:   sampleTable[i].PredictedIO,
			MeasuredIO: res.AvgIO,
		}
		cfg.printf("%7d%% %10.2f %10.2f %10.2f\n",
			pcts[i], rows[i].ModelIO, rows[i].SampleIO, rows[i].MeasuredIO)
	}
	cfg.printf("\n")
	return rows, nil
}
