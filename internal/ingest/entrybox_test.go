package ingest

import (
	"os"
	"path/filepath"
	"testing"

	stx "stindex"
)

// TestFreezeWritesOrderedBoxes: every node of every freeze an ingester
// writes decodes, and the node decoder refuses an entry rectangle that is
// inverted or NaN (geom.ErrInvertedBox), so a freeze holds none. The
// walk is the tree's own Validate, which reads every page a root reaches.
func TestFreezeWritesOrderedBoxes(t *testing.T) {
	dir := t.TempDir()
	in, err := Open(Config{Dir: dir, Lambda: testLambda, Tree: testStreamOptions().PPR})
	if err != nil {
		t.Fatal(err)
	}
	batches := feedBatches(40)
	for _, part := range [][][]Record{batches[:len(batches)/2], batches[len(batches)/2:]} {
		submitAll(t, in, part)
		if _, err := in.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "freeze-*.sti"))
	if err != nil || len(names) == 0 {
		t.Fatalf("freezes %v, %v", names, err)
	}
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		x, err := stx.DecodeIndex(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := x.(*stx.StreamIndex).Tree().Validate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.LeafRecords == 0 {
			t.Fatalf("%s holds no records", name)
		}
	}
}
