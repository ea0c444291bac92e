package costmodel

import (
	"math"
	"testing"

	"stindex/internal/datagen"
	"stindex/internal/geom"
)

func TestQueryProfileValidate(t *testing.T) {
	good := QueryProfile{ExtentX: 0.01, ExtentY: 0.01, Duration: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []QueryProfile{
		{ExtentX: -0.1, ExtentY: 0.1, Duration: 1},
		{ExtentX: 0.1, ExtentY: 1.5, Duration: 1},
		{ExtentX: 0.1, ExtentY: 0.1, Duration: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

func TestPredictMonotoneInQuerySize(t *testing.T) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var alive []geom.Rect
	for _, o := range objs {
		if o.Lifetime().ContainsInstant(500) {
			alive = append(alive, o.At(500))
		}
	}
	m := DefaultTreeModel()
	prev := 0.0
	for i, ext := range []float64{0.001, 0.01, 0.05, 0.2} {
		c, err := m.PredictEphemeral2D(alive, QueryProfile{ExtentX: ext, ExtentY: ext, Duration: 1})
		if err != nil {
			t.Fatal(err)
		}
		if c <= 0 {
			t.Fatalf("cost %g not positive", c)
		}
		if i > 0 && c < prev {
			t.Fatalf("cost should grow with query size: %g after %g", c, prev)
		}
		prev = c
	}
}

func TestEvaluateBudgetsAndChoose(t *testing.T) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{0, 150, 450}
	q := QueryProfile{ExtentX: 0.02, ExtentY: 0.02, Duration: 1}
	costs, err := EvaluateBudgets(objs, budgets, q, DefaultTreeModel(), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 {
		t.Fatalf("got %d candidates", len(costs))
	}
	for i, c := range costs {
		if c.Budget != budgets[i] {
			t.Fatalf("candidate %d budget %d", i, c.Budget)
		}
		if c.Records < 300 {
			t.Fatalf("candidate %d has %d records", i, c.Records)
		}
		if c.PredictedIO <= 0 {
			t.Fatalf("candidate %d predicts %g", i, c.PredictedIO)
		}
		if i > 0 && c.TotalVolume > costs[i-1].TotalVolume+1e-9 {
			t.Fatalf("volume should shrink with budget: %g after %g", c.TotalVolume, costs[i-1].TotalVolume)
		}
	}

	chosen, err := ChooseBudget(costs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for _, c := range costs {
		best = math.Min(best, c.PredictedIO)
	}
	if chosen.PredictedIO > best*1.05 {
		t.Fatalf("chose %g, best is %g", chosen.PredictedIO, best)
	}
	// Zero tolerance selects the argmin.
	tight, err := ChooseBudget(costs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tight.PredictedIO != best {
		t.Fatalf("zero tolerance chose %g, want %g", tight.PredictedIO, best)
	}
	if _, err := ChooseBudget(nil, 0.1); err == nil {
		t.Fatal("accepted empty candidate list")
	}
	if _, err := EvaluateBudgets(nil, budgets, q, DefaultTreeModel(), 8, 0); err == nil {
		t.Fatal("accepted empty object list")
	}
}
