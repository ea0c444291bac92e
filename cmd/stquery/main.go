// Command stquery builds an index over a record file and runs query
// workloads against it with the paper's cold-buffer discipline, printing
// average disk accesses.
//
// Usage:
//
//	stquery -i records.jsonl -index ppr   -set snapshot-mixed
//	stquery -i records.jsonl -index rstar -set range-small -queries 500
//	stquery -i records.jsonl -index rstar-packed -parallelism 8 -set range-small
//	stquery -i records.jsonl -index ppr -rect 0.4,0.4,0.6,0.6 -t 500
//	stquery -i records.jsonl -index ppr -knn 0.5,0.5 -k 10 -t 500   # k nearest at an instant
//	stquery -i records.jsonl -index hr -traj -rect 0.4,0.4,0.6,0.6 -from 100 -to 400
//	stquery -i records.jsonl -index ppr -save idx.sti       # persist the built index (not hr: it has no container)
//	stquery -load idx.sti -set snapshot-mixed               # reopen lazily (kind autodetected)
//
// To serve a saved container over HTTP, run stserve -load on it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	stx "stindex"

	"stindex/internal/stio"
)

func main() {
	var (
		in       = flag.String("i", "", "input records (JSON lines from stsplit; default stdin)")
		kind     = flag.String("index", "ppr", "index structure: ppr | rstar | rstar-packed | hr (hr cannot be saved)")
		par      = flag.Int("parallelism", 0, "worker count for bulk loading (rstar-packed) and workload measurement: 0 = all cores, 1 = serial; tree and averages are identical either way")
		save     = flag.String("save", "", "write the built index container to this file (any kind but hr, which has no container)")
		load     = flag.String("load", "", "open a saved index container lazily instead of building from records (kind autodetected; -index is ignored)")
		describe = flag.Bool("describe", false, "print the index's physical shape and exit")
		set      = flag.String("set", "", "standard query set (snapshot-tiny|snapshot-small|snapshot-mixed|snapshot-large|range-small|range-medium)")
		queries  = flag.Int("queries", 1000, "number of queries from the set")
		seed     = flag.Int64("seed", 1, "query generation seed")
		horizon  = flag.Int64("horizon", 1000, "time horizon for query placement")
		rect     = flag.String("rect", "", "single query rectangle: minx,miny,maxx,maxy")
		at       = flag.Int64("t", -1, "single snapshot query time")
		from     = flag.Int64("from", -1, "single range query start")
		to       = flag.Int64("to", -1, "single range query end (exclusive)")
		knn      = flag.String("knn", "", "k-nearest-neighbor query point: x,y (requires -t; use -k for the count)")
		kk       = flag.Int("k", 10, "neighbor count for -knn")
		traj     = flag.Bool("traj", false, "trajectory query: objects whose path crossed -rect during -from/-to, with per-object piece counts")
	)
	flag.Parse()

	var idx stx.Index
	var err error
	if *load != "" {
		idx, err = stx.OpenIndex(*load)
		if err != nil {
			fatal(err)
		}
		defer stx.CloseIndex(idx)
	} else {
		records, rerr := readRecords(*in)
		if rerr != nil {
			fatal(rerr)
		}
		idx, err = build(*kind, records, *par)
		if err != nil {
			fatal(err)
		}
	}
	if *save != "" {
		if err := stx.SaveIndex(*save, idx); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved index container to %s\n", *save)
	}
	fmt.Fprintf(os.Stderr, "built %s index: %d records, %d pages (%d KiB)\n",
		idx.Kind(), idx.Records(), idx.Pages(), idx.Bytes()/1024)

	if *describe {
		d, err := stx.Describe(idx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(d)
		return
	}

	if *knn != "" {
		x, y, err := parsePoint(*knn)
		if err != nil {
			fatal(err)
		}
		if *at < 0 {
			fatal(fmt.Errorf("-knn needs -t (the query instant)"))
		}
		idx.ResetBuffer()
		nbs, err := idx.Nearest(x, y, *at, *kk)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("results=%d io=%d\n", len(nbs), idx.IOStats().IO())
		for _, nb := range nbs {
			fmt.Printf("%d %g\n", nb.ObjectID, nb.Dist2)
		}
		return
	}

	if *traj {
		if *rect == "" {
			fatal(fmt.Errorf("-traj needs -rect (and -from/-to or -t)"))
		}
		q, err := parseSingle(*rect, *at, *from, *to)
		if err != nil {
			fatal(err)
		}
		idx.ResetBuffer()
		hits, err := idx.Trajectory(q.Rect, q.Interval)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("results=%d io=%d\n", len(hits), idx.IOStats().IO())
		for _, th := range hits {
			fmt.Printf("%d %d\n", th.ObjectID, th.Pieces)
		}
		return
	}

	if *rect != "" {
		q, err := parseSingle(*rect, *at, *from, *to)
		if err != nil {
			fatal(err)
		}
		idx.ResetBuffer()
		ids, err := stx.RunQuery(idx, q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("results=%d io=%d\n", len(ids), idx.IOStats().IO())
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}

	if *set == "" {
		fatal(fmt.Errorf("provide -set for a workload or -rect for a single query"))
	}
	qs, err := stx.GenerateQueries(stx.QuerySet(*set), *horizon, *seed)
	if err != nil {
		fatal(err)
	}
	if *queries < len(qs) {
		qs = qs[:*queries]
	}
	res, err := stx.MeasureWorkloadParallel(idx, qs, *par)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("set=%s queries=%d avg-io=%.2f avg-results=%.1f\n", *set, res.Queries, res.AvgIO, res.AvgResult)
}

func build(kind string, records []stx.Record, parallelism int) (stx.Index, error) {
	switch kind {
	case "ppr":
		return stx.BuildPPR(records, stx.PPROptions{})
	case "rstar":
		return stx.BuildRStar(records, stx.RStarOptions{ShuffleSeed: 42})
	case "rstar-packed":
		return stx.BuildRStarPacked(records, stx.RStarOptions{Parallelism: parallelism})
	case "hr":
		return stx.BuildHR(records)
	default:
		return nil, fmt.Errorf("unknown index %q (want ppr, rstar, rstar-packed or hr)", kind)
	}
}

func parsePoint(s string) (x, y float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-knn wants x,y")
	}
	if x, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return 0, 0, fmt.Errorf("knn x: %w", err)
	}
	if y, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
		return 0, 0, fmt.Errorf("knn y: %w", err)
	}
	return x, y, nil
}

func parseSingle(rect string, at, from, to int64) (stx.Query, error) {
	parts := strings.Split(rect, ",")
	if len(parts) != 4 {
		return stx.Query{}, fmt.Errorf("rect wants minx,miny,maxx,maxy")
	}
	var c [4]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return stx.Query{}, fmt.Errorf("rect coordinate %d: %w", i, err)
		}
		c[i] = v
	}
	r := stx.Rect{MinX: c[0], MinY: c[1], MaxX: c[2], MaxY: c[3]}
	switch {
	case at >= 0:
		return stx.Query{Rect: r, Interval: stx.Interval{Start: at, End: at + 1}}, nil
	case from >= 0 && to > from:
		return stx.Query{Rect: r, Interval: stx.Interval{Start: from, End: to}}, nil
	default:
		return stx.Query{}, fmt.Errorf("provide -t for a snapshot or -from/-to for a range")
	}
}

func readRecords(path string) ([]stx.Record, error) {
	r := io.Reader(os.Stdin)
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	recs, err := stio.ReadRecords(r)
	if err != nil {
		return nil, err
	}
	out := make([]stx.Record, len(recs))
	for i, rec := range recs {
		out[i] = stx.Record{
			Rect:     stx.Rect{MinX: rec.Rect.MinX, MinY: rec.Rect.MinY, MaxX: rec.Rect.MaxX, MaxY: rec.Rect.MaxY},
			Interval: stx.Interval{Start: rec.Interval.Start, End: rec.Interval.End},
			ObjectID: rec.ObjectID,
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stquery:", err)
	os.Exit(1)
}
