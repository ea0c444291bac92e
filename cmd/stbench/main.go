// Command stbench regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index).
//
// Usage:
//
//	stbench                         # every experiment at reduced scale
//	stbench -exp fig15              # one experiment
//	stbench -full                   # the paper's 10k..80k sizes (slow!)
//	stbench -sizes 1000,5000 -queries 500
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"stindex/internal/experiments"
	"stindex/internal/parallel"
)

var runners = []struct {
	name string
	run  func(experiments.Config) error
}{
	{"table1", func(c experiments.Config) error { _, err := experiments.Table1(c); return err }},
	{"table2", func(c experiments.Config) error { _, err := experiments.Table2(c); return err }},
	{"fig11", func(c experiments.Config) error { _, err := experiments.Fig11(c); return err }},
	{"fig12", func(c experiments.Config) error { _, err := experiments.Fig12(c); return err }},
	{"fig13", func(c experiments.Config) error { _, err := experiments.Fig13(c); return err }},
	{"fig14", func(c experiments.Config) error { _, err := experiments.Fig14(c); return err }},
	{"fig15", func(c experiments.Config) error { _, err := experiments.Fig15(c); return err }},
	{"fig16", func(c experiments.Config) error { _, err := experiments.Fig16(c); return err }},
	{"fig17", func(c experiments.Config) error { _, err := experiments.Fig17(c); return err }},
	{"fig18", func(c experiments.Config) error { _, err := experiments.Fig18(c); return err }},
	{"fig17r", func(c experiments.Config) error { _, err := experiments.Fig17Railway(c); return err }},
	{"fig18r", func(c experiments.Config) error { _, err := experiments.Fig18Railway(c); return err }},
	{"fig14c", func(c experiments.Config) error { _, err := experiments.Fig14Commuter(c); return err }},
	{"chooser", func(c experiments.Config) error { _, err := experiments.Chooser(c); return err }},
	{"overlap", func(c experiments.Config) error { _, err := experiments.Overlap(c); return err }},
	{"build", func(c experiments.Config) error { _, err := experiments.Build(c); return err }},
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: all | table1 | table2 | fig11..fig18 | fig17r | fig18r (railway) | fig14c (commuter) | chooser (§IV) | overlap (HR vs PPR) | build")
		full    = flag.Bool("full", false, "use the paper's dataset sizes (10k..80k); hours of CPU")
		sizes   = flag.String("sizes", "", "comma-separated dataset sizes overriding the defaults")
		queries = flag.Int("queries", 0, "queries per set (default 1000)")
		seed    = flag.Int64("seed", 1, "generation seed")
		par     = flag.Int("parallelism", 0, "worker count for the split pipeline and workload measurement (0 = all cores, 1 = serial; results are identical either way)")
	)
	flag.Parse()

	cfg := experiments.Config{FullScale: *full, Queries: *queries, Seed: *seed, Parallelism: *par, Out: os.Stdout}
	fmt.Fprintf(os.Stderr, "stbench: split pipeline running on %d worker(s)\n", parallel.Workers(*par, -1))
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fatal(fmt.Errorf("bad size %q", s))
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}

	matched := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		matched = true
		if err := r.run(cfg); err != nil {
			fatal(fmt.Errorf("%s: %w", r.name, err))
		}
	}
	if !matched {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stbench:", err)
	os.Exit(1)
}
