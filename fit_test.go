package stindex

import "testing"

func TestFitObjectFacade(t *testing.T) {
	// A raw GPS-style track: drift with jitter.
	raw := make([]Rect, 80)
	for i := range raw {
		x := 0.1 + float64(i)*0.005
		raw[i] = Rect{MinX: x, MinY: 0.4, MaxX: x + 0.01, MaxY: 0.41}
	}
	o, worst, err := FitObject(42, 100, raw, FitOptions{Tolerance: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.002 {
		t.Fatalf("worst deviation %g", worst)
	}
	if o.ID() != 42 || o.Len() != 80 || o.Lifetime().Start != 100 {
		t.Fatalf("fitted object header wrong: %d %d %v", o.ID(), o.Len(), o.Lifetime())
	}
	// The fitted object slots straight into the pipeline.
	records, rep, err := SplitDataset([]*Object{o}, SplitConfig{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 || rep.Gain() <= 0 {
		t.Fatalf("pipeline over fitted object: %d records, gain %.2f", len(records), rep.Gain())
	}
	if _, _, err := FitObject(1, 0, nil, FitOptions{}); err == nil {
		t.Fatal("accepted empty track")
	}
}
