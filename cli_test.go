package stindex_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles the command-line tools once into a temp dir.
func buildTools(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/stgen", "./cmd/stsplit", "./cmd/stquery", "./cmd/stbench", "./cmd/ststream", "./cmd/stcheck")
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building tools: %v\n%s", err, out)
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var so, se bytes.Buffer
	cmd.Stdout = &so
	cmd.Stderr = &se
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout: %s\nstderr: %s", filepath.Base(bin), args, err, so.String(), se.String())
	}
	return so.String(), se.String()
}

// TestCLIPipeline drives the whole toolchain: generate → split → query →
// save/load → stream, checking each stage's outputs feed the next.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()
	dataset := filepath.Join(work, "objs.jsonl")
	records := filepath.Join(work, "recs.jsonl")
	image := filepath.Join(work, "idx.ppr")
	feed := filepath.Join(work, "feed.jsonl")

	// Generate.
	_, se := run(t, filepath.Join(bin, "stgen"), "-family", "random", "-n", "300", "-seed", "5", "-o", dataset)
	if !strings.Contains(se, "wrote 300 random objects") {
		t.Fatalf("stgen output: %s", se)
	}

	// Split.
	_, se = run(t, filepath.Join(bin, "stsplit"), "-i", dataset, "-budget", "450", "-o", records)
	if !strings.Contains(se, "records=750") {
		t.Fatalf("stsplit output: %s", se)
	}

	// Query + save.
	so, _ := run(t, filepath.Join(bin, "stquery"), "-i", records, "-index", "ppr",
		"-set", "snapshot-mixed", "-queries", "100", "-save", image)
	if !strings.Contains(so, "set=snapshot-mixed queries=100") {
		t.Fatalf("stquery output: %s", so)
	}

	// Load the saved image and get identical workload numbers.
	so2, _ := run(t, filepath.Join(bin, "stquery"), "-load", image, "-index", "ppr",
		"-set", "snapshot-mixed", "-queries", "100")
	if so != so2 {
		t.Fatalf("loaded index answers differ:\n%s\nvs\n%s", so, so2)
	}

	// Single query.
	so, _ = run(t, filepath.Join(bin, "stquery"), "-i", records, "-index", "rstar",
		"-rect", "0.2,0.2,0.6,0.6", "-t", "500")
	if !strings.Contains(so, "results=") {
		t.Fatalf("single query output: %s", so)
	}

	// Describe.
	so, _ = run(t, filepath.Join(bin, "stquery"), "-i", records, "-index", "hr", "-describe")
	if !strings.Contains(so, "hr: records=750") {
		t.Fatalf("describe output: %s", so)
	}

	// hr is built in memory: it builds and answers, but neither saves nor
	// shards. hybrid is no index kind at all, on any tool.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"stquery", "-i", records, "-index", "hr", "-save", filepath.Join(work, "hr.sti")}, "hr"},
		{[]string{"stsplit", "-i", dataset, "-budget", "450", "-shards", "2", "-index", "hr", "-o", filepath.Join(work, "hr.manifest")}, "hr"},
		{[]string{"stquery", "-i", records, "-index", "hybrid", "-rect", "0.2,0.2,0.6,0.6", "-from", "100", "-to", "400"},
			`unknown index "hybrid"`},
		{[]string{"stsplit", "-i", dataset, "-budget", "450", "-shards", "2", "-index", "hybrid", "-o", filepath.Join(work, "hybrid.manifest")},
			`unknown shard index kind "hybrid"`},
		{[]string{"stcheck", "-kinds", "hybrid", "-n", "40", "-queries", "8", "-seeds", "1", "-nofaults"},
			`unknown index kind "hybrid"`},
	} {
		out, err := exec.Command(filepath.Join(bin, c.args[0]), c.args[1:]...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), c.want) {
			t.Fatalf("%v: want a failure containing %q, got err=%v\n%s", c.args, c.want, err, out)
		}
	}

	// Streaming: events feed into ststream with calibration.
	run(t, filepath.Join(bin, "stgen"), "-family", "random", "-n", "200", "-seed", "6", "-events", "-o", feed)
	so, se = run(t, filepath.Join(bin, "ststream"), "-i", feed, "-target", "2.5",
		"-set", "snapshot-small", "-queries", "100")
	if !strings.Contains(se, "calibrated lambda") || !strings.Contains(so, "set=snapshot-small") {
		t.Fatalf("ststream output: %s / %s", so, se)
	}

	// Every ingest freeze writes a stream snapshot; -describe reads one.
	journal := filepath.Join(work, "journal")
	run(t, filepath.Join(bin, "ststream"), "-i", feed, "-wal", journal)
	frozen, err := filepath.Glob(filepath.Join(journal, "freeze-*.sti"))
	if err != nil || len(frozen) == 0 {
		t.Fatalf("no frozen snapshot in %s: %v", journal, err)
	}
	so, _ = run(t, filepath.Join(bin, "stquery"), "-load", frozen[len(frozen)-1], "-describe")
	if !strings.Contains(so, "stream-ppr: records=") {
		t.Fatalf("stream snapshot describe output: %s", so)
	}

	// stbench runs a single small experiment.
	so, _ = run(t, filepath.Join(bin, "stbench"), "-exp", "table2", "-queries", "50")
	if !strings.Contains(so, "Table II") {
		t.Fatalf("stbench output: %s", so)
	}
}
