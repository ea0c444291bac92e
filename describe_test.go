package stindex

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestDescribeIndexes(t *testing.T) {
	objs := genObjects(t, 300, 61)
	records, _, err := SplitDataset(objs, SplitConfig{Budget: 450})
	if err != nil {
		t.Fatal(err)
	}

	ppr, err := BuildPPR(records, PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Describe(ppr)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != "ppr" || d.Records != len(records) || d.Nodes == 0 || d.RootSpans == 0 {
		t.Fatalf("ppr description implausible: %+v", d)
	}
	if d.LiveNodes+d.DeadNodes != d.Nodes {
		t.Fatalf("live %d + dead %d != nodes %d", d.LiveNodes, d.DeadNodes, d.Nodes)
	}
	if !strings.Contains(d.String(), "rootSpans=") {
		t.Fatalf("String() = %q", d.String())
	}

	rst, err := BuildRStar(records, RStarOptions{ShuffleSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err = Describe(rst)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != "rstar" || d.AvgLeafFill <= 0.3 || d.AvgLeafFill > 1 {
		t.Fatalf("rstar description implausible: %+v", d)
	}

	// The stream kind keeps its pieces in a PPR-tree and is described by
	// the same walk, built and after a save and lazy reopen alike.
	six := replayStream(t, objs)
	path := filepath.Join(t.TempDir(), "stream.sti")
	if err := SaveIndex(path, six); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseIndex(reopened)
	for _, idx := range []Index{six, reopened} {
		d, err := Describe(idx)
		if err != nil {
			t.Fatal(err)
		}
		if d.Kind != "stream-ppr" || d.Nodes == 0 || d.RootSpans == 0 {
			t.Fatalf("stream description implausible: %+v", d)
		}
		if d.LiveNodes+d.DeadNodes != d.Nodes {
			t.Fatalf("stream: live %d + dead %d != nodes %d", d.LiveNodes, d.DeadNodes, d.Nodes)
		}
	}
}
