package sharding

import (
	"cmp"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	stx "stindex"
)

// Sharded is a scatter-gather snapshot: one logical index over the shard
// containers named by a manifest. A query is pruned against each shard's
// manifest-level bounds (MBR + covering interval), fanned across the
// surviving shards in parallel, and the per-shard answers are merged
// with deduplication into one ascending id list — deterministic
// regardless of shard completion order. Failure is fail-stop: if any
// dispatched shard errors, the whole query errors; a silently partial
// result set is never returned (internal/check's sharded fault pass
// proves it).
//
// Sharded implements stx.Index, so the serving registry handles it
// exactly like a single container: per-worker views (each holding
// private views of every shard), lease refcounts, hot-swap. Pruning and dispatch counters are shared between the parent
// and all its views — they are per-shard serving totals, surfaced in
// /metrics.
type Sharded struct {
	man *Manifest
	// shards[i] is this instance's view of shard i plus the shared
	// bounds and counters.
	shards  []shardRef
	queries *atomic.Int64 // total sharded queries, shared across views
	fanout  int
	// parent-only: the opened containers to close.
	owned     []stx.Index
	closeOnce sync.Once
	closeErr  error
}

type shardRef struct {
	idx      stx.Index
	rect     stx.Rect
	interval stx.Interval
	stats    *shardCounters
}

// shardCounters are one shard's serving totals, shared by all views.
type shardCounters struct {
	dispatched atomic.Int64
	pruned     atomic.Int64
	reads      atomic.Int64
}

// ShardStat is one shard's externally visible serving state, reported
// under its snapshot in /metrics. For every sharded query a shard is
// either dispatched or pruned, so Queries + Pruned equals the
// snapshot's total sharded query count — the invariant the service
// tests and scripts/checkmetrics.go pin.
type ShardStat struct {
	Shard   int    `json:"shard"`
	Path    string `json:"path,omitempty"`
	Records int    `json:"records"`
	// Queries counts queries dispatched to this shard (not pruned).
	Queries int64 `json:"queries"`
	// Pruned counts queries answered without touching this shard, from
	// the manifest bounds alone.
	Pruned int64 `json:"pruned"`
	// Reads counts the disk accesses the dispatched queries cost on this
	// shard, across every serving view.
	Reads int64 `json:"reads"`
}

// OpenSharded opens the shard manifest at path and every shard container
// it names, each with the same open options. The wrap seam (shared page
// cache, fault injection) is applied to every shard's extents in
// manifest order — with the registry's generation-keyed cache wrapper
// this keeps one global byte budget across all shards of the snapshot.
func OpenSharded(path string, opts stx.OpenOptions) (*Sharded, error) {
	return OpenShardedPerShard(path, func(int) stx.OpenOptions { return opts })
}

// OpenShardedPerShard is OpenSharded with per-shard open options — the
// fault-injection seam internal/check uses to fail a single shard.
// Shards are opened sequentially in manifest order.
func OpenShardedPerShard(path string, optsFor func(shard int) stx.OpenOptions) (*Sharded, error) {
	man, err := LoadManifest(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	s := &Sharded{man: man, queries: &atomic.Int64{}}
	for i, info := range man.Shards {
		idx, err := stx.OpenIndexOptions(filepath.Join(dir, info.Path), optsFor(i))
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("sharding: opening shard %d (%s): %w", i, info.Path, err)
		}
		s.owned = append(s.owned, idx)
		s.shards = append(s.shards, shardRef{
			idx:      idx,
			rect:     info.Rect,
			interval: info.Interval,
			stats:    &shardCounters{},
		})
	}
	s.fanout = runtime.GOMAXPROCS(0)
	if s.fanout > len(s.shards) {
		s.fanout = len(s.shards)
	}
	return s, nil
}

// Manifest returns the manifest this snapshot was opened from.
func (s *Sharded) Manifest() *Manifest { return s.man }

// ShardIndexes returns the underlying shard containers in manifest
// order — for structural checks on the parent snapshot; views own no
// containers and return nil. Treat the indexes as read-only.
func (s *Sharded) ShardIndexes() []stx.Index {
	return s.owned
}

// Queries returns the total number of sharded queries served across all
// views of this snapshot.
func (s *Sharded) Queries() int64 { return s.queries.Load() }

// ShardStats returns every shard's serving totals in manifest order.
func (s *Sharded) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStat{
			Shard:   i,
			Path:    s.man.Shards[i].Path,
			Records: s.man.Shards[i].Records,
			Queries: sh.stats.dispatched.Load(),
			Pruned:  sh.stats.pruned.Load(),
			Reads:   sh.stats.reads.Load(),
		}
	}
	return out
}

// Snapshot implements stx.Index.
func (s *Sharded) Snapshot(r stx.Rect, t int64) ([]int64, error) {
	return s.Range(r, stx.Interval{Start: t, End: t + 1})
}

// Range implements stx.Index: prune, scatter, gather, merge. The merge
// of the shards' ascending answers de-duplicates (partitioning is at
// object granularity, but the merge stays correct for any layout), so the
// answer is deterministic whatever order the shards finished in.
func (s *Sharded) Range(r stx.Rect, iv stx.Interval) ([]int64, error) {
	results, err := scatter(s, r, iv, func(idx stx.Index) ([]int64, error) { return idx.Range(r, iv) })
	if err != nil {
		return nil, err
	}
	return stx.MergeIDs(results...), nil
}

// scatter is the window-query fan-out shared by Range and Trajectory. It
// prunes against the manifest bounds — a shard whose MBR misses the query
// rect or whose covering interval misses the query interval cannot
// contribute; the predicate is exactly the record-match predicate (closed
// rect intersection, half-open interval overlap), so pruning can never
// drop a shard holding a matching record — then runs query on the
// surviving shards, at most s.fanout at a time, and returns their answers
// in shard order. Fail-stop: any shard error fails the whole query;
// partial results are never returned.
func scatter[T any](s *Sharded, r stx.Rect, iv stx.Interval, query func(idx stx.Index) (T, error)) ([]T, error) {
	s.queries.Add(1)
	dispatch := make([]int, 0, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		if !r.Intersects(sh.rect) || iv.Start >= sh.interval.End || iv.End <= sh.interval.Start {
			sh.stats.pruned.Add(1)
			continue
		}
		dispatch = append(dispatch, i)
	}

	results := make([]T, len(dispatch))
	if len(dispatch) <= 1 || s.fanout <= 1 {
		for di, i := range dispatch {
			var err error
			if results[di], err = queryShard(&s.shards[i], query); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	errs := make([]error, len(dispatch))
	var wg sync.WaitGroup
	sem := make(chan struct{}, s.fanout)
	for di, i := range dispatch {
		wg.Add(1)
		sem <- struct{}{}
		go func(di, i int) {
			defer wg.Done()
			results[di], errs[di] = queryShard(&s.shards[i], query)
			<-sem
		}(di, i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// queryShard runs one dispatched query on a shard of this view,
// accounting the dispatch and its disk reads on the shared counters.
func queryShard[T any](sh *shardRef, query func(idx stx.Index) (T, error)) (T, error) {
	sh.stats.dispatched.Add(1)
	before := sh.idx.IOStats()
	res, err := query(sh.idx)
	sh.stats.reads.Add(sh.idx.IOStats().Reads - before.Reads)
	return res, err
}

// Nearest implements stx.Index as a shard-pruning priority merge.
// Shards whose covering interval misses the instant are pruned outright;
// the survivors are visited in ascending order of their manifest MBR's
// min-distance to the query point (an admissible bound: the MBR covers
// every record in the shard). Once k neighbors are merged, a shard whose
// bound strictly exceeds the current k-th best distance cannot improve
// the answer — an equal bound must still be visited, it may hold a
// smaller-ObjectID tie — and counts as pruned. Dispatch is sequential in
// bound order (that is what makes the pruning bite); the merge is
// stx.MergeNeighbors, so the final (Dist2, ObjectID) order is
// bit-identical to the serial answer. Every shard is accounted as either
// dispatched or pruned, keeping the /metrics invariant.
func (s *Sharded) Nearest(x, y float64, t int64, k int) ([]stx.Neighbor, error) {
	if err := stx.ValidateKNN(x, y, k); err != nil {
		return nil, err
	}
	s.queries.Add(1)
	type cand struct {
		i  int
		d2 float64
	}
	cands := make([]cand, 0, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		if t < sh.interval.Start || t >= sh.interval.End {
			sh.stats.pruned.Add(1)
			continue
		}
		cands = append(cands, cand{i: i, d2: sh.rect.MinDist2(x, y)})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(a.d2, b.d2); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	var merged []stx.Neighbor
	for ci, c := range cands {
		if len(merged) == k && c.d2 > merged[len(merged)-1].Dist2 {
			s.shards[c.i].stats.pruned.Add(1)
			continue
		}
		nb, err := queryShard(&s.shards[c.i], func(idx stx.Index) ([]stx.Neighbor, error) {
			return idx.Nearest(x, y, t, k)
		})
		if err != nil {
			// Fail-stop; account the unvisited shards so dispatched+pruned
			// still equals the query total.
			for _, rest := range cands[ci+1:] {
				s.shards[rest.i].stats.pruned.Add(1)
			}
			return nil, err
		}
		merged = stx.MergeNeighbors(merged, nb, k)
	}
	return merged, nil
}

// Trajectory implements stx.Index: prune and scatter exactly like Range,
// then merge by summing per-object piece counts — the partitioners
// assign each record to exactly one shard, so an object's pieces sum
// across shards to the same count a single index would report.
func (s *Sharded) Trajectory(r stx.Rect, iv stx.Interval) ([]stx.TrajectoryHit, error) {
	results, err := scatter(s, r, iv, func(idx stx.Index) ([]stx.TrajectoryHit, error) { return idx.Trajectory(r, iv) })
	if err != nil {
		return nil, err
	}
	return stx.MergeTrajectories(results...), nil
}

// ResetBuffer implements stx.Index over every shard view.
func (s *Sharded) ResetBuffer() {
	for i := range s.shards {
		s.shards[i].idx.ResetBuffer()
	}
}

// IOStats implements stx.Index: the sum over this view's shard views.
func (s *Sharded) IOStats() stx.IOStats {
	var total stx.IOStats
	for i := range s.shards {
		total = total.Add(s.shards[i].idx.IOStats())
	}
	return total
}

// Pages implements stx.Index: the sum over all shards.
func (s *Sharded) Pages() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].idx.Pages()
	}
	return n
}

// Bytes implements stx.Index: the sum over all shards.
func (s *Sharded) Bytes() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].idx.Bytes()
	}
	return n
}

// Records implements stx.Index: the sum over all shards.
func (s *Sharded) Records() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].idx.Records()
	}
	return n
}

// Kind implements stx.Index.
func (s *Sharded) Kind() string { return "sharded" }

// QueryView implements stx.Index: a view holds a private view of every
// shard and the parent's shared counters, so any number of sessions can
// scatter-gather concurrently over the frozen shard stores.
func (s *Sharded) QueryView() stx.Index {
	v := &Sharded{man: s.man, queries: s.queries, fanout: s.fanout}
	v.shards = make([]shardRef, len(s.shards))
	for i, sh := range s.shards {
		v.shards[i] = shardRef{idx: sh.idx.QueryView(), rect: sh.rect, interval: sh.interval, stats: sh.stats}
	}
	return v
}

// Close closes every shard container (a no-op on views, which own no
// containers). Idempotent, like every index close in this codebase.
func (s *Sharded) Close() error {
	s.closeOnce.Do(func() {
		for _, idx := range s.owned {
			if err := stx.CloseIndex(idx); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

var _ stx.Index = (*Sharded)(nil)
