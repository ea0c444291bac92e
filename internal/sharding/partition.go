// Package sharding partitions a split record set into K shards — one
// STIC container each plus a small manifest — so the serving layer can
// scatter a query across shards in parallel and gather the merged
// answer. Partitioning happens strictly *after* the paper's split
// pipeline: the union of the shard record sets is exactly the unsharded
// record multiset, so a sharded snapshot is query-equivalent to the
// single container it was carved from (internal/check proves it).
//
// The partitioner is temporal, at object granularity (every record of an
// object lands in the same shard, keeping per-shard answers
// duplicate-free for that object): equal-count epochs over lifetime
// midpoints, the natural cut for a partially persistent structure whose
// root log is a timeline, and the only cut whose shard bounds a query
// can be pruned against. It is deterministic: ties break on object id.
package sharding

import (
	"cmp"
	"fmt"
	"slices"

	stx "stindex"
)

// MaxShards bounds the shard count of a plan and of any manifest
// accepted from disk.
const MaxShards = 4096

// PlanConfig parameterises Partition.
type PlanConfig struct {
	// Shards is the target shard count K (>= 1). Fewer non-empty shards
	// may result when the collection has fewer objects than K.
	Shards int
	// Partitioner names the cut: "temporal", which "" also selects.
	// The spatial and velocity partitioners were removed (their shard
	// bounds overlap, so they never pruned a query); asking for one is
	// an error.
	Partitioner string
}

// Shard is one planned partition: its records and their tight bounds.
type Shard struct {
	Records  []stx.Record
	Rect     stx.Rect     // MBR over the shard's record rectangles
	Interval stx.Interval // covering interval over the shard's records
	Objects  int          // distinct objects in the shard
}

// Plan is the outcome of Partition: the non-empty shards, epochs oldest
// first.
type Plan struct {
	Partitioner string
	Shards      []Shard
	Records     int // total records across shards
	Objects     int // total distinct objects
}

// objectKey carries the per-object feature the partitioner sorts on.
type objectKey struct {
	id       int64
	lo, hi   int // half-open record range in the grouped slice
	midpoint float64
}

// Partition groups the records by object and cuts the objects, sorted by
// lifetime midpoint, into cfg.Shards equal-count groups. Empty groups
// are dropped. The input slice is not modified.
func Partition(records []stx.Record, cfg PlanConfig) (*Plan, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("sharding: shard count %d, want >= 1", cfg.Shards)
	}
	if cfg.Shards > MaxShards {
		return nil, fmt.Errorf("sharding: shard count %d exceeds the maximum %d", cfg.Shards, MaxShards)
	}
	switch cfg.Partitioner {
	case "":
		cfg.Partitioner = "temporal"
	case "temporal":
	case "spatial", "velocity":
		return nil, fmt.Errorf("sharding: the %s partitioner was removed (it never pruned a query); use temporal", cfg.Partitioner)
	default:
		return nil, fmt.Errorf("sharding: unknown partitioner %q (want temporal)", cfg.Partitioner)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("sharding: no records to partition")
	}

	// Group records by object: a sorted copy keeps grouping allocation-
	// light at millions of records (no per-object map buckets). The sort
	// is stable, since two input records may share object and start.
	grouped := make([]stx.Record, len(records))
	copy(grouped, records)
	slices.SortStableFunc(grouped, func(a, b stx.Record) int {
		if c := cmp.Compare(a.ObjectID, b.ObjectID); c != 0 {
			return c
		}
		return cmp.Compare(a.Interval.Start, b.Interval.Start)
	})
	count := 1
	for i := 1; i < len(grouped); i++ {
		if grouped[i].ObjectID != grouped[i-1].ObjectID {
			count++
		}
	}
	objs := make([]objectKey, 0, count)
	for lo := 0; lo < len(grouped); {
		hi := lo + 1
		for hi < len(grouped) && grouped[hi].ObjectID == grouped[lo].ObjectID {
			hi++
		}
		objs = append(objs, objectFeatures(grouped, lo, hi))
		lo = hi
	}
	// Object ids are distinct after grouping, so (midpoint, id) is a total
	// order and needs no stable sort.
	slices.SortFunc(objs, func(a, b objectKey) int {
		if c := cmp.Compare(a.midpoint, b.midpoint); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})

	plan := &Plan{Partitioner: cfg.Partitioner, Records: len(grouped), Objects: len(objs)}
	for _, g := range equalCountGroups(objs, cfg.Shards) {
		if len(g) == 0 {
			continue
		}
		var sh Shard
		sh.Objects = len(g)
		n := 0
		for _, o := range g {
			n += o.hi - o.lo
		}
		sh.Records = make([]stx.Record, 0, n)
		for _, o := range g {
			sh.Records = append(sh.Records, grouped[o.lo:o.hi]...)
		}
		sh.Rect, sh.Interval = recordBounds(sh.Records)
		plan.Shards = append(plan.Shards, sh)
	}
	return plan, nil
}

// objectFeatures derives one object's partitioning feature from its
// grouped record range [lo, hi): the midpoint of its lifetime.
func objectFeatures(grouped []stx.Record, lo, hi int) objectKey {
	start, end := grouped[lo].Interval.Start, grouped[lo].Interval.End
	for _, r := range grouped[lo+1 : hi] {
		if r.Interval.Start < start {
			start = r.Interval.Start
		}
		if r.Interval.End > end {
			end = r.Interval.End
		}
	}
	return objectKey{id: grouped[lo].ObjectID, lo: lo, hi: hi, midpoint: (float64(start) + float64(end)) / 2}
}

// equalCountGroups cuts a sorted object slice into k contiguous groups
// whose sizes differ by at most one (the leading groups get the
// remainder).
func equalCountGroups(objs []objectKey, k int) [][]objectKey {
	groups := make([][]objectKey, 0, k)
	n := len(objs)
	base, rem := n/k, n%k
	lo := 0
	for g := 0; g < k; g++ {
		size := base
		if g < rem {
			size++
		}
		groups = append(groups, objs[lo:lo+size])
		lo += size
	}
	return groups
}

// recordBounds returns the tight MBR and covering interval of a
// non-empty record set — the manifest-level pruning bounds.
func recordBounds(records []stx.Record) (stx.Rect, stx.Interval) {
	r := records[0].Rect
	iv := records[0].Interval
	for _, rec := range records[1:] {
		if rec.Rect.MinX < r.MinX {
			r.MinX = rec.Rect.MinX
		}
		if rec.Rect.MinY < r.MinY {
			r.MinY = rec.Rect.MinY
		}
		if rec.Rect.MaxX > r.MaxX {
			r.MaxX = rec.Rect.MaxX
		}
		if rec.Rect.MaxY > r.MaxY {
			r.MaxY = rec.Rect.MaxY
		}
		if rec.Interval.Start < iv.Start {
			iv.Start = rec.Interval.Start
		}
		if rec.Interval.End > iv.End {
			iv.End = rec.Interval.End
		}
	}
	return r, iv
}
