package stindex

import (
	"math"
	"sync/atomic"
	"testing"

	"stindex/internal/geom"
	"stindex/internal/split"
)

type goldenCandidate struct {
	budget      int
	predictedIO uint64 // math.Float64bits
	records     int
	totalVolume uint64
}

func checkGoldenTable(t *testing.T, name string, chosen BudgetCandidate, table []BudgetCandidate, wantChosen int, want []goldenCandidate) {
	t.Helper()
	if chosen.Budget != wantChosen {
		t.Errorf("%s: chose budget %d, want %d", name, chosen.Budget, wantChosen)
	}
	if len(table) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", name, len(table), len(want))
	}
	for i, w := range want {
		c := table[i]
		if c.Budget != w.budget || c.Records != w.records ||
			math.Float64bits(c.PredictedIO) != w.predictedIO || math.Float64bits(c.TotalVolume) != w.totalVolume {
			t.Errorf("%s row %d: {%d %v %d %v}, want {%d %v %d %v}", name, i,
				c.Budget, c.PredictedIO, c.Records, c.TotalVolume,
				w.budget, math.Float64frombits(w.predictedIO), w.records, math.Float64frombits(w.totalVolume))
		}
	}
}

// TestChoosersGoldenTables pins both choosers' whole tables, bit for bit,
// to the values they returned when every candidate budget still ran the
// splitter again (commit 60cf35d): reading each budget's records off one
// set of plans changes no cut, so no predicted cost, record count or
// volume moves.
func TestChoosersGoldenTables(t *testing.T) {
	queries, err := GenerateQueries(QuerySnapshotSmall, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChooseBudgetConfig{Budgets: []int{0, 1500, 3000, 4500, 6000}}
	chosen, table, err := ChooseBudgetBySampling(genObjects(t, 3000, 6), queries[:100], cfg, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenTable(t, "sampling", chosen, table, 4500, []goldenCandidate{
		{0, 0x4004666666666666, 900, 0x40d47ee4e650b017},
		{1500, 0x4003333333333333, 1350, 0x40c8f7483e4f33de},
		{3000, 0x40027ae147ae147b, 1800, 0x40c15fa99eb166cb},
		{4500, 0x400199999999999a, 2250, 0x40b9685cbbc1f410},
		{6000, 0x4000f5c28f5c28f6, 2700, 0x40b35204f39b22ab},
	})

	chosen, table, err = ChooseBudget(genObjects(t, 2000, 5), ChooseBudgetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenTable(t, "analytic", chosen, table, 3500, []goldenCandidate{
		{0, 0x4011400000000000, 2000, 0x40e7845f847048d4},
		{500, 0x4011400000000000, 2500, 0x40e1d4f973dd836e},
		{1000, 0x4011400000000000, 3000, 0x40dcd648f85f2805},
		{1500, 0x40111e4469868ede, 3500, 0x40d7e8ae0fd82301},
		{2000, 0x401083564ecd3f5c, 4000, 0x40d42f29719b1164},
		{2500, 0x400fe501a8341431, 4500, 0x40d13fe13803f375},
		{3000, 0x400e97a1f06967b8, 5000, 0x40cdc64cb0e4f47b},
		{3500, 0x400d6becbfb63b4b, 5500, 0x40c9e5df50e8714a},
		{4000, 0x400c7231932c8cc1, 6000, 0x40c6acf97bdc8667},
	})
}

// TestSamplingChooserPlansSampleOnce counts the split measure's calls
// through one sampling run over five budgets. A merge run evaluates the
// measure a fixed number of times per object; reading a budget's records
// off a plan evaluates it once per record. The run must cost one merge
// run per sampled object plus the records of each budget — at the parent
// commit it cost two merge runs per object per budget.
func TestSamplingChooserPlansSampleOnce(t *testing.T) {
	var calls atomic.Int64
	counting := func(r geom.Rect, length int64) float64 {
		calls.Add(1)
		return split.VolumeMeasure(r, length)
	}
	objs := genObjects(t, 150, 7)
	queries, err := GenerateQueries(QuerySnapshotSmall, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		split.MergePlan(o.inner, counting)
	}
	oneRunEach := calls.Swap(0)

	cfg := ChooseBudgetConfig{Budgets: []int{0, 75, 150, 225, 300}, Parallelism: 2}
	// The whole collection is the sample, so the test knows which objects
	// were planned.
	_, table, err := chooseBySampling(objs, queries[:20], cfg, 1, 1, counting)
	if err != nil {
		t.Fatal(err)
	}
	want := oneRunEach
	for _, c := range table {
		want += int64(c.Records)
	}
	if got := calls.Load(); got != want {
		t.Fatalf("%d measure calls for 5 budgets over %d objects; one merge run per object (%d) plus one call per record is %d",
			got, len(objs), oneRunEach, want)
	}
}
