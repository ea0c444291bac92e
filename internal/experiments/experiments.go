// Package experiments reproduces every table and figure of the paper's
// evaluation (§V). Each driver generates the workload, runs the algorithms
// and prints the same rows or series the paper reports, returning the
// numbers for programmatic checks.
//
// The paper ran 10k-80k objects on a 1 GHz Pentium III; the default scale
// here is reduced (the *shape* of every result — who wins, by what factor,
// where the crossovers fall — is preserved, see EXPERIMENTS.md), and
// Config.FullScale restores the published sizes for long runs.
package experiments

import (
	"fmt"
	"io"
	"time"

	"stindex/internal/datagen"
	"stindex/internal/trajectory"
)

// horizon is the paper's evolution length: every dataset and query set
// spans 1000 instants.
const horizon = 1000

// Config controls an experiment run.
type Config struct {
	// Sizes are the dataset sizes; nil selects {500, 1000, 2000, 4000}
	// (reduced) or the paper's {10000, 30000, 50000, 80000} with FullScale.
	Sizes []int
	// FullScale switches the default sizes to the published ones.
	FullScale bool
	// Queries per set; 0 means the paper's 1000.
	Queries int
	// Seed for data and query generation.
	Seed int64
	// Parallelism is the worker count for the parallel stages — the split
	// pipeline (curve construction, record materialization) and workload
	// measurement (per-worker read-only index views): 0 selects
	// GOMAXPROCS, 1 forces serial runs — useful when timing the
	// algorithms themselves. Results are identical for every setting.
	Parallelism int
	// Out receives the human-readable tables; nil discards them.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if len(c.Sizes) == 0 {
		if c.FullScale {
			c.Sizes = []int{10000, 30000, 50000, 80000}
		} else {
			c.Sizes = []int{500, 1000, 2000, 4000}
		}
	}
	if c.Queries == 0 {
		c.Queries = 1000
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.Out, format, args...)
}

// randomDataset generates the uniform dataset of the given size.
func (c Config) randomDataset(n int) ([]*trajectory.Object, error) {
	return datagen.Random(datagen.RandomConfig{N: n, Horizon: horizon, Seed: c.Seed + int64(n)})
}

// railwayDataset generates the skewed dataset of the given size.
func (c Config) railwayDataset(n int) ([]*trajectory.Object, error) {
	return datagen.Railway(datagen.RailwayConfig{N: n, Horizon: horizon, Seed: c.Seed + int64(n)})
}

// queries generates one of the standard query sets, truncated to
// c.Queries.
func (c Config) queries(set datagen.QuerySetName) ([]datagen.Query, error) {
	cfg, err := datagen.StandardQueryConfig(set, horizon, c.Seed+777)
	if err != nil {
		return nil, err
	}
	cfg.Count = c.Queries
	return datagen.Queries(cfg)
}

// timed runs fn and returns its duration.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// pct formats a budget as a percentage of the object count.
func pct(budget, n int) string {
	return fmt.Sprintf("%d%%", budget*100/n)
}
