package stindex

import "testing"

func TestHRIndexMatchesBruteForce(t *testing.T) {
	objs := genObjects(t, 300, 14)
	records, _, err := SplitDataset(objs, SplitConfig{Budget: 450})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := BuildHR(records, HROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := hr.Tree().Validate(); err != nil {
		t.Fatalf("HR tree invalid: %v", err)
	}
	queries, err := GenerateQueries(QueryRangeSmall, 1000, 15)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries[:60] {
		want := bruteQuery(records, q)
		got, err := RunQuery(hr, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(got), want) {
			t.Fatalf("query %d: hr returned %d objects, brute force %d", qi, len(got), len(want))
		}
	}
	// The overlapping structure's storage dwarfs the multi-version one's.
	ppr, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hr.Pages() < ppr.Pages()*3 {
		t.Fatalf("HR %d pages vs PPR %d — expected the overlapping blowup", hr.Pages(), ppr.Pages())
	}
	if hr.Kind() != "hr" || hr.Records() != len(records) {
		t.Fatal("HR accessors wrong")
	}
	if _, err := BuildHR(nil, HROptions{}); err == nil {
		t.Fatal("accepted empty records")
	}
}
