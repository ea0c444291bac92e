// Command stsplit applies the paper's splitting pipeline to a dataset:
// it distributes a split budget over the objects and writes the resulting
// MBR records as JSON lines.
//
// Usage:
//
//	stsplit -i random10k.jsonl -budget 15000 -o records.jsonl
//	stsplit -i random10k.jsonl -budget 5000 -splitter dp -dist optimal
//	stsplit -i random10k.jsonl -baseline piecewise -o piecewise.jsonl
//
// With -shards N the split records are not written as JSON: they are
// partitioned into N temporal shards (object granularity, equal-count
// epochs) and -o names a shard manifest; one -index kind container, with
// compressed pages, is built and saved per shard next to it. stserve
// -load serves such a manifest as one scatter-gather snapshot:
//
//	stsplit -i random10k.jsonl -budget 15000 -shards 4 -o snap.stm
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	stx "stindex"

	"stindex/internal/alloc"
	"stindex/internal/parallel"
	"stindex/internal/sharding"
	"stindex/internal/split"
	"stindex/internal/stio"
	"stindex/internal/trajectory"
)

func main() {
	var (
		in       = flag.String("i", "", "input dataset (JSON lines from stgen; default stdin)")
		out      = flag.String("o", "", "output records file (default stdout)")
		budget   = flag.Int("budget", 0, "total number of artificial splits")
		splitter = flag.String("splitter", "merge", "single-object splitter: merge | dp")
		dist     = flag.String("dist", "lagreedy", "budget distribution: lagreedy | greedy | optimal")
		baseline = flag.String("baseline", "", "bypass the budget pipeline: none | piecewise")
		qx       = flag.Float64("qx", 0, "query-aware objective: expected query x-extent (0 = volume objective)")
		qy       = flag.Float64("qy", 0, "query-aware objective: expected query y-extent")
		par      = flag.Int("parallelism", 0, "worker count for curve construction and materialization (0 = all cores, 1 = serial; output is identical either way)")
		shards   = flag.Int("shards", 0, "partition the records into this many shards and build a sharded snapshot at -o (0 = write records)")
		indexK   = flag.String("index", "ppr", "shard container index kind: ppr | rstar | rstar-packed")
		pages    = flag.Int("pages", 0, "global buffer-page budget distributed across the shards (0 = 10 per shard)")
	)
	flag.Parse()

	objs, err := readObjects(*in)
	if err != nil {
		fatal(err)
	}

	var results []split.Result
	switch *baseline {
	case "none":
		for _, o := range objs {
			results = append(results, split.None(o))
		}
	case "piecewise":
		for _, o := range objs {
			results = append(results, split.Piecewise(o))
		}
	case "":
		results, err = runPipeline(objs, *budget, *splitter, *dist, *qx, *qy, *par)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown baseline %q (want none or piecewise)", *baseline))
	}

	var records []stio.Record
	unsplit, total := 0.0, 0.0
	for _, r := range results {
		unsplit += r.Object.MBR().Volume()
		for _, b := range r.Boxes {
			// Report plain space-time volume regardless of the splitting
			// objective, so gains stay comparable across -qx/-qy settings.
			total += b.Volume()
			records = append(records, stio.Record{Rect: b.Rect, Interval: b.Interval, ObjectID: r.Object.ID})
		}
	}

	if *shards > 0 {
		if *out == "" {
			fatal(fmt.Errorf("-shards needs -o (the manifest path)"))
		}
		if err := buildSharded(records, *out, *shards, *indexK, *pages, *par); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "objects=%d records=%d volume=%.4f sharded into %d temporal shards at %s\n",
			len(objs), len(records), total, *shards, *out)
		return
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := stio.WriteRecords(w, records); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "objects=%d records=%d volume=%.4f (unsplit %.4f, gain %.1f%%) workers=%d\n",
		len(objs), len(records), total, unsplit, 100*(1-total/unsplit),
		parallel.Workers(*par, len(objs)))
}

func runPipeline(objs []*trajectory.Object, budget int, splitter, dist string, qx, qy float64, workers int) ([]split.Result, error) {
	planner, ok := map[string]split.Planner{"merge": split.MergePlan, "dp": split.DPPlan}[splitter]
	if !ok {
		return nil, fmt.Errorf("unknown splitter %q (want merge or dp)", splitter)
	}
	var m split.Measure // nil: the volume objective
	if qx > 0 || qy > 0 {
		m = split.QueryCostMeasure(qx, qy)
	}
	curves := alloc.PlanCurves(objs, planner, m, workers)
	var a alloc.Assignment
	switch dist {
	case "lagreedy":
		a = alloc.LAGreedy(curves, budget)
	case "greedy":
		a = alloc.Greedy(curves, budget)
	case "optimal":
		a = alloc.Optimal(curves, budget)
	default:
		return nil, fmt.Errorf("unknown distribution %q (want lagreedy, greedy or optimal)", dist)
	}
	return curves.Materialize(a, workers)
}

// buildSharded partitions the split records and builds one container
// per shard plus the manifest stserve loads.
func buildSharded(records []stio.Record, manifest string, shards int, kind string, pages, par int) error {
	recs := make([]stx.Record, len(records))
	for i, r := range records {
		recs[i] = stx.Record{
			Rect:     stx.Rect{MinX: r.Rect.MinX, MinY: r.Rect.MinY, MaxX: r.Rect.MaxX, MaxY: r.Rect.MaxY},
			Interval: stx.Interval{Start: r.Interval.Start, End: r.Interval.End},
			ObjectID: r.ObjectID,
		}
	}
	plan, err := sharding.Partition(recs, sharding.PlanConfig{Shards: shards})
	if err != nil {
		return err
	}
	_, err = sharding.Build(manifest, plan, sharding.BuildConfig{
		Kind: kind, BufferBudget: pages, Parallelism: par,
	})
	return err
}

func readObjects(path string) ([]*trajectory.Object, error) {
	r := io.Reader(os.Stdin)
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return stio.ReadObjects(r)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stsplit:", err)
	os.Exit(1)
}
