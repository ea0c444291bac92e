package stindex

import (
	"fmt"
	"math/rand"

	"stindex/internal/alloc"
	"stindex/internal/costmodel"
	"stindex/internal/split"
	"stindex/internal/trajectory"
)

// BudgetCandidate is the estimated outcome of one split budget.
type BudgetCandidate struct {
	Budget      int
	PredictedIO float64 // expected (or measured, for sampling) accesses per query
	Records     int
	TotalVolume float64
}

// ChooseBudgetConfig controls the automatic split-budget selection of the
// paper's §IV.
type ChooseBudgetConfig struct {
	// Budgets are the candidate budgets; empty means 0%..200% of the
	// object count in 25% steps.
	Budgets []int
	// Profile is the expected query workload; a zero profile means the
	// paper's small snapshot queries (0.5% extents, duration 1).
	Profile QueryProfile
	// Tolerance picks the smallest budget within this relative distance of
	// the best predicted cost (default 5%).
	Tolerance float64
	// Parallelism is the worker count for curve construction, for
	// evaluating the candidate budgets concurrently, and for the sampling
	// chooser's workload measurement: 0 = GOMAXPROCS, 1 = serial. The
	// chosen budget and prediction table are identical for every setting.
	Parallelism int
}

// QueryProfile is the average window query of the expected workload.
type QueryProfile struct {
	ExtentX, ExtentY float64
	Duration         int64
}

func (c ChooseBudgetConfig) withDefaults(n int) ChooseBudgetConfig {
	if len(c.Budgets) == 0 {
		for pct := 0; pct <= 200; pct += 25 {
			c.Budgets = append(c.Budgets, n*pct/100)
		}
	}
	if c.Profile == (QueryProfile{}) {
		c.Profile = QueryProfile{ExtentX: 0.005, ExtentY: 0.005, Duration: 1}
	}
	if c.Tolerance == 0 {
		c.Tolerance = 0.05
	}
	return c
}

// ChooseBudget implements the paper's first (analytical) method for
// finding a good number of splits: for every candidate budget it
// distributes the splits, derives statistics of the split dataset, and
// feeds them into an analytical cost model of the partially persistent
// index; it returns the smallest budget whose predicted cost is within the
// tolerance of the best, plus the whole prediction table.
func ChooseBudget(objs []*Object, cfg ChooseBudgetConfig) (BudgetCandidate, []BudgetCandidate, error) {
	if len(objs) == 0 {
		return BudgetCandidate{}, nil, fmt.Errorf("stindex: empty object collection")
	}
	cfg = cfg.withDefaults(len(objs))
	costs, err := costmodel.EvaluateBudgets(innerObjects(objs), cfg.Budgets,
		costmodel.QueryProfile{ExtentX: cfg.Profile.ExtentX, ExtentY: cfg.Profile.ExtentY, Duration: cfg.Profile.Duration},
		costmodel.DefaultTreeModel(), 16, cfg.Parallelism)
	if err != nil {
		return BudgetCandidate{}, nil, err
	}
	return pickBudget(costs, cfg.Tolerance)
}

// pickBudget applies the choosers' common rule — the smallest budget
// within the tolerance of the best cost — and returns it with the table.
func pickBudget(costs []costmodel.CandidateCost, tolerance float64) (BudgetCandidate, []BudgetCandidate, error) {
	chosen, err := costmodel.ChooseBudget(costs, tolerance)
	if err != nil {
		return BudgetCandidate{}, nil, err
	}
	table := make([]BudgetCandidate, len(costs))
	for i, c := range costs {
		table[i] = BudgetCandidate(c)
	}
	return BudgetCandidate(chosen), table, nil
}

// ChooseBudgetBySampling implements the paper's second method: draw a
// sample of the objects, build a real partially persistent index per
// candidate budget (budgets scaled down to the sample), measure the given
// queries on each, and return the smallest budget within the tolerance of
// the best measured cost. The returned budgets are normalised back to the
// full dataset.
func ChooseBudgetBySampling(objs []*Object, queries []Query, cfg ChooseBudgetConfig,
	sampleFraction float64, seed int64) (BudgetCandidate, []BudgetCandidate, error) {
	return chooseBySampling(objs, queries, cfg, sampleFraction, seed, nil)
}

// chooseBySampling is the sampling chooser under an explicit split
// measure (nil: volume, what the exported entry points use), so a test
// can count the measure's calls. The sample is planned once; every
// candidate budget is distributed over and read off the same plans.
func chooseBySampling(objs []*Object, queries []Query,
	cfg ChooseBudgetConfig, sampleFraction float64, seed int64, m split.Measure) (BudgetCandidate, []BudgetCandidate, error) {

	if len(objs) == 0 {
		return BudgetCandidate{}, nil, fmt.Errorf("stindex: empty object collection")
	}
	if len(queries) == 0 {
		return BudgetCandidate{}, nil, fmt.Errorf("stindex: no sample queries")
	}
	if sampleFraction <= 0 || sampleFraction > 1 {
		return BudgetCandidate{}, nil, fmt.Errorf("stindex: sample fraction %g outside (0,1]", sampleFraction)
	}
	cfg = cfg.withDefaults(len(objs))

	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(objs))
	sampleSize := int(float64(len(objs)) * sampleFraction)
	if sampleSize < 1 {
		sampleSize = 1
	}
	sample := make([]*trajectory.Object, sampleSize)
	for i := 0; i < sampleSize; i++ {
		sample[i] = objs[perm[i]].inner
	}
	curves := alloc.PlanCurves(sample, split.MergePlan, m, cfg.Parallelism)

	var costs []costmodel.CandidateCost
	for _, budget := range cfg.Budgets {
		scaled := int(float64(budget) * sampleFraction)
		records, rep, err := splitPlanned(curves, SplitConfig{Budget: scaled, Parallelism: cfg.Parallelism})
		if err != nil {
			return BudgetCandidate{}, nil, err
		}
		idx, err := BuildPPR(records, PPROptions{})
		if err != nil {
			return BudgetCandidate{}, nil, err
		}
		res, err := MeasureWorkloadParallel(idx, queries, cfg.Parallelism)
		if err != nil {
			return BudgetCandidate{}, nil, err
		}
		costs = append(costs, costmodel.CandidateCost{
			Budget:      budget,
			PredictedIO: res.AvgIO,
			Records:     rep.Records,
			TotalVolume: rep.TotalVolume,
		})
	}

	return pickBudget(costs, cfg.Tolerance)
}
