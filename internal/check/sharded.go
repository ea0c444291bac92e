package check

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	stx "stindex"

	"stindex/internal/sharding"
)

// shardedDiffShards is the shard count the differential sharded pass
// partitions each workload into — small enough to stay cheap, large
// enough that pruning and the parallel scatter path both engage.
const shardedDiffShards = 3

// shardKindFor maps a harness index kind to the kind its shard
// containers are built with. The stream kind has no batch builder; its
// piece records are sharded into PPR containers, which is exactly what
// a served sharded snapshot of a streamed dataset would hold.
func shardKindFor(kind string) string {
	if kind == "stream" || kind == "stream-ppr" {
		return "ppr"
	}
	return kind
}

// shardedDiffPass proves a sharded snapshot is query-equivalent to the
// unsharded index it was carved from: it partitions the records the
// expected answers were computed over, builds a manifest plus shard
// containers, opens them through the
// serving scatter-gather path, validates each shard container's
// structural invariants, and compares every query — serially and with
// four concurrent query views — against the same oracle answers the
// unsharded kind was diffed against. It also pins the accounting
// invariant that every (query, shard) pair is either pruned or
// dispatched.
func shardedDiffPass(kind string, records []stx.Record, wl *Workload, exp *Expected) error {
	plan, err := sharding.Partition(records, sharding.PlanConfig{Shards: shardedDiffShards})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "stcheck-shard-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	manifest := filepath.Join(dir, "snap.stm")
	if _, err := sharding.Build(manifest, plan, sharding.BuildConfig{Kind: shardKindFor(kind)}); err != nil {
		return err
	}
	sidx, err := sharding.OpenSharded(manifest, stx.OpenOptions{})
	if err != nil {
		return err
	}
	defer sidx.Close()
	for i, shard := range sidx.ShardIndexes() {
		if err := CheckInvariants(shard); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if err := diffPass(sidx, wl, exp, 1); err != nil {
		return fmt.Errorf("serial sharded pass: %w", err)
	}
	if err := diffPass(sidx, wl, exp, 4); err != nil {
		return fmt.Errorf("parallel sharded pass: %w", err)
	}
	// Accounting: per shard, pruned + dispatched must equal the total
	// sharded query count — the /metrics invariant.
	total := sidx.Queries()
	for _, st := range sidx.ShardStats() {
		if st.Queries+st.Pruned != total {
			return fmt.Errorf("shard %d accounting: dispatched %d + pruned %d != %d queries",
				st.Shard, st.Queries, st.Pruned, total)
		}
	}
	return sidx.Close()
}

// shardedFaultPass proves scatter-gather failure is fail-stop: with a
// fault schedule armed under a single shard's page store, every query
// either matches the oracle exactly or fails with the injected error —
// a dropped or truncated shard answer can never surface as a silently
// partial merge (it would differ from the oracle and fail the
// comparison). After disarming and clearing the buffers, every query
// must be oracle-exact again. Opens the shards through the pread window,
// where read faults reach the pread path.
func shardedFaultPass(wl *Workload, exp *Expected, schedules []string) (uint64, error) {
	plan, err := sharding.Partition(wl.Records, sharding.PlanConfig{Shards: shardedDiffShards})
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp("", "stcheck-shardfault-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	manifest := filepath.Join(dir, "snap.stm")
	// One buffer page per shard: the harness trees are small enough to
	// fit a default pool entirely, which would starve the deterministic
	// schedules of reads to fire on.
	if _, err := sharding.Build(manifest, plan, sharding.BuildConfig{Kind: "ppr", BufferBudget: shardedDiffShards}); err != nil {
		return 0, err
	}
	var injected uint64
	for _, schedStr := range schedules {
		n, err := shardedFaultSchedule(manifest, schedStr, wl, exp)
		injected += n
		if err != nil {
			return injected, fmt.Errorf("schedule %s: %w", schedStr, err)
		}
	}
	return injected, nil
}

func shardedFaultSchedule(manifest, schedStr string, wl *Workload, exp *Expected) (uint64, error) {
	sched, err := ParseSchedule(schedStr)
	if err != nil {
		return 0, err
	}
	wrap, stores := Wrapper(sched)
	// The fault wrap is applied to shard 0 only: the failure of one
	// shard must decide the fate of the whole fan-out.
	sidx, err := sharding.OpenShardedPerShard(manifest, func(shard int) stx.OpenOptions {
		opts := stx.OpenOptions{Backend: stx.BackendDisk}
		if shard == 0 {
			opts.Wrap = wrap
		}
		return opts
	})
	if err != nil {
		if errors.Is(err, ErrInjected) {
			return 1, nil
		}
		return 0, fmt.Errorf("open: %w", err)
	}
	defer sidx.Close()

	// Armed pass, serial (the FaultStore schedule is then deterministic):
	// every family oracle-equal or fail-stop with the injected error —
	// nothing else. A dropped shard answer would surface as a partial
	// merge differing from the oracle and fail here.
	if err := faultPass(sidx, wl, exp, true); err != nil {
		return injectedCount(stores), err
	}
	injected := injectedCount(stores)
	if injected == 0 && !strings.HasPrefix(schedStr, "rand:") {
		return injected, fmt.Errorf("deterministic schedule never fired on the faulted shard (%d reads seen)", readCount(stores))
	}

	// Disarmed recheck: the fan-out must fully recover.
	for _, fs := range *stores {
		fs.Disarm()
	}
	sidx.ResetBuffer()
	if err := faultPass(sidx, wl, exp, false); err != nil {
		return injected, err
	}
	if err := sidx.Close(); err != nil {
		return injected, fmt.Errorf("close after disarm: %w", err)
	}
	return injected, nil
}
