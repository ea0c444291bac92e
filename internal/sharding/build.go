package sharding

import (
	"fmt"
	"os"
	"path/filepath"

	stx "stindex"

	"stindex/internal/alloc"
)

// BuildConfig parameterises Build.
type BuildConfig struct {
	// Kind is the index kind every shard container holds: ppr (default),
	// rstar or rstar-packed.
	Kind string
	// BufferBudget is the global buffer-pool page budget distributed
	// across the shards (default 10 pages per shard — the paper's buffer
	// size scaled by the shard count). Every shard receives at least one
	// page; the remainder goes where the alloc greedy says it buys the
	// most, weighted by shard volume.
	BufferBudget int
	// Parallelism is the worker count for the packed R-tree bulk loader's
	// slab tiling inside a shard; shards themselves build sequentially to
	// bound peak memory. 0 = GOMAXPROCS.
	Parallelism int
	// Codec is the shard containers' page codec: "" or compressed, the
	// one codec written. Kept for callers that name it; stserve
	// autodetects per container from the header, so manifests whose
	// shards older builds saved as identity load fine.
	Codec stx.Codec
}

// ShardKinds lists the index kinds Build accepts.
var ShardKinds = []string{"ppr", "rstar", "rstar-packed"}

// Build materialises a plan: it distributes the buffer budget over the
// shards, builds and saves one container per shard next to manifestPath
// (named <manifest>.shard<i>.sti), and writes the manifest itself.
// Shard containers are referenced by relative path, so the manifest
// directory moves as a unit.
func Build(manifestPath string, plan *Plan, cfg BuildConfig) (*Manifest, error) {
	if len(plan.Shards) == 0 {
		return nil, fmt.Errorf("sharding: plan has no shards")
	}
	if cfg.Kind == "" {
		cfg.Kind = "ppr"
	}
	pages := DistributeBufferPages(plan, cfg.BufferBudget)
	m := &Manifest{
		Kind:        cfg.Kind,
		Partitioner: plan.Partitioner,
		Records:     plan.Records,
		Objects:     plan.Objects,
	}
	base := filepath.Base(manifestPath)
	dir := filepath.Dir(manifestPath)
	var written []string
	cleanup := func() {
		for _, p := range written {
			os.Remove(p)
		}
	}
	for i, sh := range plan.Shards {
		idx, err := buildShardIndex(cfg.Kind, sh.Records, pages[i], cfg.Parallelism)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("sharding: building shard %d: %w", i, err)
		}
		rel := fmt.Sprintf("%s.shard%d.sti", base, i)
		path := filepath.Join(dir, rel)
		if err := stx.SaveIndexOptions(path, idx, stx.SaveOptions{Codec: cfg.Codec}); err != nil {
			cleanup()
			return nil, fmt.Errorf("sharding: saving shard %d: %w", i, err)
		}
		written = append(written, path)
		m.Shards = append(m.Shards, ShardInfo{
			Path:        rel,
			Rect:        sh.Rect,
			Interval:    sh.Interval,
			Records:     len(sh.Records),
			Objects:     sh.Objects,
			BufferPages: pages[i],
		})
	}
	if err := SaveManifest(manifestPath, m); err != nil {
		cleanup()
		return nil, err
	}
	return m, nil
}

// DistributeBufferPages carves a global buffer-page budget into
// per-shard shares with the alloc greedy: every shard gets one page,
// and each further page goes to the shard where it buys the largest
// marginal reduction of a volume-over-pages curve — heavier shards
// (by total record volume) attract proportionally larger pools, the
// same diminishing-returns shape the paper's split distribution uses.
func DistributeBufferPages(plan *Plan, budget int) []int {
	k := len(plan.Shards)
	if budget <= 0 {
		budget = 10 * k
	}
	if budget < k {
		budget = k
	}
	extra := budget - k
	curves := make([][]float64, k)
	for i, sh := range plan.Shards {
		w := stx.TotalVolume(sh.Records)
		if w <= 0 {
			// Degenerate (zero-volume) shards still deserve pool pages
			// proportional to their record count.
			w = float64(len(sh.Records)) * 1e-9
		}
		// curve[j] = shard volume served through 1+j pool pages: the
		// classic 1/x cache-benefit shape, non-increasing as Curves
		// requires.
		curve := make([]float64, extra+1)
		for j := range curve {
			curve[j] = w / float64(j+1)
		}
		curves[i] = curve
	}
	cs, err := alloc.NewCurvesFromTable(curves)
	if err != nil {
		// The synthetic curves above are valid by construction.
		panic(err)
	}
	a := alloc.Greedy(cs, extra)
	pages := make([]int, k)
	for i := range pages {
		pages[i] = 1 + a.Splits[i]
	}
	return pages
}

// buildShardIndex builds one shard's index kind over its records.
func buildShardIndex(kind string, records []stx.Record, bufferPages, parallelism int) (stx.Index, error) {
	switch kind {
	case "ppr":
		return stx.BuildPPR(records, stx.PPROptions{BufferPages: bufferPages})
	case "rstar":
		return stx.BuildRStar(records, stx.RStarOptions{ShuffleSeed: 42, BufferPages: bufferPages})
	case "rstar-packed":
		return stx.BuildRStarPacked(records, stx.RStarOptions{BufferPages: bufferPages, Parallelism: parallelism})
	}
	return nil, fmt.Errorf("sharding: unknown shard index kind %q (want one of %v)", kind, ShardKinds)
}
