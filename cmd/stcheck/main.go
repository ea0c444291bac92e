// Command stcheck runs the correctness harness (check.Run) seed by seed:
// the differential query oracle (every index kind vs a brute-force scan
// — built in memory, reopened from its one saved container through each
// read flavour with the built index's cold-buffer I/O, serial and
// parallel, sharded and over HTTP), the structural invariant walkers,
// and the fault-injection matrix. It exits non-zero on the first
// discrepancy, printing the workload seed — and fault schedule, when one
// was armed — needed to replay it.
//
// Usage:
//
//	stcheck                                  # 3 seeds, all kinds, every flavour
//	stcheck -seed 42 -seeds 1                # replay one failing seed
//	stcheck -backend mmap                    # reopen through the mapping only
//	stcheck -kinds ppr,stream -n 1000        # focus on two kinds, bigger data
//	stcheck -nofaults                        # oracle only, skip the fault matrix
//	stcheck -schedules read@1,rand:7:0.1     # custom fault schedules
//	stcheck -inspect snap.stic               # print a container's shape and sizes
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	stx "stindex"

	"stindex/internal/check"
)

func main() {
	var (
		n           = flag.Int("n", 400, "objects per workload")
		queries     = flag.Int("queries", 200, "queries per workload")
		horizon     = flag.Int64("horizon", 1000, "evolution length in time instants")
		seed        = flag.Int64("seed", 1, "first workload seed")
		seeds       = flag.Int("seeds", 3, "number of consecutive seeds to run")
		kinds       = flag.String("kinds", "", "comma-separated index kinds (default: ppr,rstar,stream)")
		backend     = flag.String("backend", "all", "open flavours each saved container is reopened with: disk (pread window) | mmap | all; the built and the decoded index are always checked")
		parallelism = flag.String("parallelism", "1,4", "comma-separated worker counts for the parallel passes")
		nofaults    = flag.Bool("nofaults", false, "skip the fault-injection matrix")
		schedules   = flag.String("schedules", "", "comma-separated fault schedules overriding the defaults (see DESIGN.md for the grammar); ';' separates rules within one schedule")
		inspect     = flag.String("inspect", "", "print the given container's kind, codec, page counts and sizes, then exit")
		verbose     = flag.Bool("v", false, "log every pass to stderr")
	)
	flag.Parse()

	if *inspect != "" {
		info, err := stx.InspectContainer(*inspect)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %s container v%d, codec %s, %d extent(s), meta %d bytes\n",
			*inspect, info.Kind, info.Version, info.Codec, info.Extents, info.MetaBytes)
		fmt.Printf("  pages: %d live / %d allocated x %d bytes\n",
			info.Pages, info.PagesAlloc, info.PageSize)
		fmt.Printf("  bytes: %d logical (raw pages), %d stored (encoded extents), %d file",
			info.LogicalBytes, info.StoredBytes, info.FileBytes)
		if info.StoredBytes > 0 && info.LogicalBytes > info.StoredBytes {
			fmt.Printf(" — %.1fx compression", float64(info.LogicalBytes)/float64(info.StoredBytes))
		}
		fmt.Println()
		return
	}

	cfg := check.DiffConfig{
		Objects: *n,
		Horizon: *horizon,
		Queries: *queries,
	}
	if *kinds != "" {
		for _, k := range strings.Split(*kinds, ",") {
			cfg.Kinds = append(cfg.Kinds, strings.TrimSpace(k))
		}
	}
	if *backend != "all" {
		b := stx.Backend(*backend)
		if err := b.Check(); err != nil {
			fatal(fmt.Errorf("-backend: %w", err))
		}
		cfg.Backends = []stx.Backend{b}
	}
	for _, p := range strings.Split(*parallelism, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 1 {
			fatal(fmt.Errorf("bad parallelism %q", p))
		}
		cfg.Parallelism = append(cfg.Parallelism, w)
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "stcheck: "+format+"\n", args...)
		}
	}
	if *schedules != "" {
		var scheds []string
		for _, s := range strings.Split(*schedules, ",") {
			s = strings.ReplaceAll(strings.TrimSpace(s), ";", ",")
			if _, err := check.ParseSchedule(s); err != nil {
				fatal(err)
			}
			scheds = append(scheds, s)
		}
		check.DefaultReadSchedules = scheds
	}
	if *nofaults {
		check.DefaultReadSchedules = nil
	}

	for i := 0; i < *seeds; i++ {
		cfg.Seed = *seed + int64(i)
		rep, err := check.Run(cfg)
		if err != nil {
			fatal(fmt.Errorf("FAILED — replay with -seed %d -seeds 1: %w", cfg.Seed, err))
		}
		fmt.Printf("stcheck: seed %d: %d oracle passes, %d comparisons ok\n",
			cfg.Seed, rep.Passes, rep.Compared)
		fmt.Printf("stcheck: seed %d: %d queries ok over HTTP\n", cfg.Seed, rep.HTTPChecked)
		if !*nofaults {
			fmt.Printf("stcheck: seed %d: %d fault schedules ok, %d faults injected and contained\n",
				cfg.Seed, rep.Schedules, rep.Injected)
		}
	}
	if !*nofaults {
		if err := check.VerifyBufferFaults(); err != nil {
			fatal(err)
		}
		fmt.Println("stcheck: buffer fault semantics ok")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stcheck:", err)
	os.Exit(1)
}
