package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	stx "stindex"

	"stindex/internal/datagen"
	"stindex/internal/sharding"
)

// shardChunk is the generation/split chunk size of the sharded
// benchmark: the dataset is produced chunk by chunk (distinct seeds and
// id offsets, split budget 150% per chunk) so the million-object input
// never holds more than one chunk of objects in memory — only the
// accumulated records survive.
const shardChunk = 50_000

// ShardRow records one cell of the sharded-serving sweep: one shard count
// over one dataset, measured with the paper's cold-buffer discipline
// (buffers reset before every query).
type ShardRow struct {
	Objects int
	Records int
	Shards  int // built shards (= requested count here)
	Pages   int // total container pages across shards
	// AvgReads is the average page reads per query across all shards,
	// cold buffers (the paper's AvgIO discipline, summed over the
	// fan-out).
	AvgReads float64
	// AvgDispatched is the average number of shards a query was
	// dispatched to after manifest-bounds pruning.
	AvgDispatched float64
	// PrunedFrac is the fraction of (query, shard) pairs answered by the
	// manifest bounds alone: pruned / (shards x queries).
	PrunedFrac float64
	AvgResult  float64
	// SingleShard counts the queries the manifest bounds pruned down to
	// exactly one dispatched shard; AvgReadsSingle is their average page
	// reads and BaselineSingle the unsharded (shards=1) average over the
	// very same queries — the apples-to-apples cost of a pruned query.
	SingleShard    int
	AvgReadsSingle float64
	BaselineSingle float64
}

// Shard measures scatter-gather serving over one large dataset: for
// every shard count it partitions the records into temporal epochs,
// builds a sharded snapshot (shard containers + manifest), reopens it
// through the serving fan-out on the disk flavour, and replays the query
// set cold. The shards=1 row is the unsharded baseline: one container
// holding every record, served through the same code path. Shard
// containers are bulk-loaded packed R*-trees (the fastest builder at
// millions of records).
func Shard(cfg Config) ([]ShardRow, error) {
	cfg = cfg.withDefaults()
	if len(cfg.ShardCounts) == 0 {
		cfg.ShardCounts = []int{1, 4, 16}
	}
	n := cfg.Sizes[len(cfg.Sizes)-1]
	cfg.printf("Sharded serving — scatter-gather fan-out, %d objects (150%% splits, %d-object chunks), cold buffers\n", n, shardChunk)
	cfg.printf("%8s | %8s | %10s %10s %11s %10s | %8s %9s %9s\n",
		"shards", "pages", "reads/q", "disp/q", "pruned-frac", "results/q",
		"1shard-q", "reads/1q", "base/1q")

	records, err := chunkedRandomRecords(cfg, n)
	if err != nil {
		return nil, err
	}
	qs, err := cfg.queries(datagen.SnapshotMixed)
	if err != nil {
		return nil, err
	}
	queries := toQueries(qs)

	dir, err := os.MkdirTemp("", "stindex-shard")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var rows []ShardRow
	var baseline []int64 // per-query reads of the first shards=1 cell
	for _, k := range cfg.ShardCounts {
		row, reads, disp, err := shardOnce(dir, records, queries, n, k)
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", k, err)
		}
		if baseline == nil && row.Shards == 1 {
			baseline = reads
		}
		var singleReads, singleBase int64
		for i, d := range disp {
			if d != 1 {
				continue
			}
			row.SingleShard++
			singleReads += reads[i]
			if baseline != nil {
				singleBase += baseline[i]
			}
		}
		if row.SingleShard > 0 {
			row.AvgReadsSingle = float64(singleReads) / float64(row.SingleShard)
			if baseline != nil {
				row.BaselineSingle = float64(singleBase) / float64(row.SingleShard)
			}
		}
		rows = append(rows, row)
		cfg.printf("%8d | %8d | %10.1f %10.2f %11.3f %10.1f | %8d %9.1f %9.1f\n",
			row.Shards, row.Pages,
			row.AvgReads, row.AvgDispatched, row.PrunedFrac, row.AvgResult,
			row.SingleShard, row.AvgReadsSingle, row.BaselineSingle)
	}
	cfg.printf("\n")
	return rows, nil
}

// chunkedRandomRecords generates and splits the dataset chunk by chunk,
// releasing each chunk's objects before the next is generated.
func chunkedRandomRecords(cfg Config, n int) ([]stx.Record, error) {
	var records []stx.Record
	for first := 0; first < n; first += shardChunk {
		size := shardChunk
		if n-first < size {
			size = n - first
		}
		objs, err := datagen.Random(datagen.RandomConfig{
			N: size, Horizon: cfg.Horizon,
			Seed:    cfg.Seed + int64(first)*1_000_003,
			FirstID: int64(first),
		})
		if err != nil {
			return nil, err
		}
		records = append(records, lagreedyRecords(objs, size*3/2, cfg.Parallelism)...)
	}
	return records, nil
}

// shardOnce builds and measures one shard-count cell, returning the row plus each query's page reads and dispatch width (how
// many shards the router actually fanned it to).
func shardOnce(dir string, records []stx.Record, queries []stx.Query, n, k int) (ShardRow, []int64, []int, error) {
	plan, err := sharding.Partition(records, sharding.PlanConfig{Shards: k})
	if err != nil {
		return ShardRow{}, nil, nil, err
	}
	manifest := filepath.Join(dir, fmt.Sprintf("shard-%d.stm", k))
	if _, err := sharding.Build(manifest, plan, sharding.BuildConfig{Kind: "rstar-packed"}); err != nil {
		return ShardRow{}, nil, nil, err
	}

	sidx, err := sharding.OpenSharded(manifest, stx.OpenOptions{Backend: stx.BackendDisk})
	if err != nil {
		return ShardRow{}, nil, nil, err
	}
	defer sidx.Close()

	dispatchedNow := func() int64 {
		var d int64
		for _, st := range sidx.ShardStats() {
			d += st.Queries
		}
		return d
	}
	perReads := make([]int64, len(queries))
	perDisp := make([]int, len(queries))
	var reads, results int64
	for i, q := range queries {
		sidx.ResetBuffer() // the paper's cold-buffer AvgIO discipline
		before, dispBefore := sidx.IOStats(), dispatchedNow()
		ids, err := stx.RunQuery(sidx, q)
		if err != nil {
			return ShardRow{}, nil, nil, err
		}
		perReads[i] = sidx.IOStats().Reads - before.Reads
		perDisp[i] = int(dispatchedNow() - dispBefore)
		reads += perReads[i]
		results += int64(len(ids))
	}
	var dispatched, pruned int64
	for _, st := range sidx.ShardStats() {
		dispatched += st.Queries
		pruned += st.Pruned
	}
	nq := float64(len(queries))
	row := ShardRow{
		Objects: n, Records: len(records),
		Shards:        len(plan.Shards),
		Pages:         sidx.Pages(),
		AvgReads:      float64(reads) / nq,
		AvgDispatched: float64(dispatched) / nq,
		PrunedFrac:    float64(pruned) / (float64(len(plan.Shards)) * nq),
		AvgResult:     float64(results) / nq,
	}
	if err := sidx.Close(); err != nil {
		return ShardRow{}, nil, nil, err
	}
	// Remove this cell's containers before the next builds, bounding the
	// temp-dir footprint to one sharded copy of the dataset.
	matches, err := filepath.Glob(manifest + "*")
	if err == nil {
		for _, m := range matches {
			os.Remove(m)
		}
	}
	return row, perReads, perDisp, nil
}
