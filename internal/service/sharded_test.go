package service

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	stx "stindex"

	"stindex/internal/sharding"
)

// buildShardedFixture builds one record set, an unsharded PPR container
// over it, and a shards-wide manifest — the equivalence pair every
// sharded test compares. recorded is the partitioner name the manifest
// carries: the plan is always temporal, but manifests written before the
// spatial and velocity partitioners were removed still name them, and
// must keep opening and serving.
func buildShardedFixture(t *testing.T, recorded string, shards int) (flat, manifest string, records []stx.Record) {
	t.Helper()
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 300, Horizon: 500, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	records, _, err = stx.SplitDataset(objs, stx.SplitConfig{Budget: 450})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	idx, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	flat = filepath.Join(dir, "flat.sti")
	if err := stx.SaveIndex(flat, idx); err != nil {
		t.Fatal(err)
	}
	plan, err := sharding.Partition(records, sharding.PlanConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	manifest = filepath.Join(dir, "sharded.stm")
	m, err := sharding.Build(manifest, plan, sharding.BuildConfig{Kind: "ppr"})
	if err != nil {
		t.Fatal(err)
	}
	if recorded != m.Partitioner {
		m.Partitioner = recorded
		var buf bytes.Buffer
		if err := sharding.WriteManifest(&buf, m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifest, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return flat, manifest, records
}

func shardedQueries(t *testing.T, n int) []stx.Query {
	t.Helper()
	qs, err := stx.GenerateQueries(stx.QuerySnapshotMixed, 500, 29)
	if err != nil {
		t.Fatal(err)
	}
	return qs[:n]
}

func TestShardedMatchesUnsharded(t *testing.T) {
	for _, part := range []string{"temporal", "spatial", "velocity"} {
		t.Run(part, func(t *testing.T) {
			flat, manifest, _ := buildShardedFixture(t, part, 3)
			fidx, err := stx.OpenIndex(flat)
			if err != nil {
				t.Fatal(err)
			}
			defer stx.CloseIndex(fidx)
			sidx, err := OpenSharded(manifest, stx.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer sidx.Close()
			if sidx.Kind() != "sharded" {
				t.Fatalf("Kind = %q", sidx.Kind())
			}
			if sidx.Records() != fidx.Records() {
				t.Fatalf("sharded has %d records, flat %d", sidx.Records(), fidx.Records())
			}
			for qi, q := range shardedQueries(t, 120) {
				want, err := stx.RunQuery(fidx, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := stx.RunQuery(sidx, q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(got, want) {
					t.Fatalf("query %d: sharded answer differs (%d vs %d ids)", qi, len(got), len(want))
				}
			}
		})
	}
}

func TestShardedPruneInvariant(t *testing.T) {
	_, manifest, _ := buildShardedFixture(t, "temporal", 4)
	sidx, err := OpenSharded(manifest, stx.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sidx.Close()
	qs := shardedQueries(t, 200)
	for _, q := range qs {
		if _, err := stx.RunQuery(sidx, q); err != nil {
			t.Fatal(err)
		}
	}
	total := sidx.Queries()
	if total != int64(len(qs)) {
		t.Fatalf("Queries = %d, want %d", total, len(qs))
	}
	var pruned int64
	for _, st := range sidx.ShardStats() {
		if st.Queries+st.Pruned != total {
			t.Fatalf("shard %d: dispatched %d + pruned %d != total %d", st.Shard, st.Queries, st.Pruned, total)
		}
		pruned += st.Pruned
	}
	// Temporal epochs over snapshot-style queries must prune: a
	// single-instant query overlaps few of the four epochs.
	if pruned == 0 {
		t.Fatal("temporal partitioning pruned nothing over a snapshot workload")
	}
}

func TestShardedQueryViewsConcurrent(t *testing.T) {
	flat, manifest, _ := buildShardedFixture(t, "spatial", 3)
	fidx, err := stx.OpenIndex(flat)
	if err != nil {
		t.Fatal(err)
	}
	defer stx.CloseIndex(fidx)
	sidx, err := OpenSharded(manifest, stx.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sidx.Close()
	qs := shardedQueries(t, 60)
	want := make([][]int64, len(qs))
	for i, q := range qs {
		if want[i], err = stx.RunQuery(fidx, q); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := sidx.QueryView()
			for i, q := range qs {
				got, err := stx.RunQuery(view, q)
				if err != nil {
					errCh <- err
					return
				}
				if !sameIDs(got, want[i]) {
					errCh <- errMismatch(i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// View counters are shared with the parent: 4 workers x 60 queries.
	if got := sidx.Queries(); got != int64(4*len(qs)) {
		t.Fatalf("shared query counter = %d, want %d", got, 4*len(qs))
	}
}

type errMismatch int

func (e errMismatch) Error() string { return "sharded view answer differs from flat index" }

// TestRegistryLoadsManifest serves a flat container and a sharded
// manifest over the same records from one registry, both read through
// the mapping, and they must answer alike.
func TestRegistryLoadsManifest(t *testing.T) {
	flat, manifest, _ := buildShardedFixture(t, "velocity", 3)
	reg := NewRegistryConfig(RegistryConfig{CacheBytes: 1 << 20, OpenBackend: stx.BackendMmap})
	defer reg.Close()
	if _, err := reg.Load("flat", flat); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("sharded", manifest); err != nil {
		t.Fatal(err)
	}
	fl, err := reg.Acquire("flat")
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Release()
	sl, err := reg.Acquire("sharded")
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Release()
	if kind := sl.Snapshot().info().Kind; kind != "sharded" {
		t.Fatalf("registry kind = %q, want sharded", kind)
	}
	fview, sview := fl.View(), sl.View()
	qs := shardedQueries(t, 100)
	for qi, q := range qs {
		want, err := stx.RunQuery(fview, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := stx.RunQuery(sview, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("query %d: registry-served sharded answer differs", qi)
		}
	}
	// The /metrics invariant: per shard, dispatched + pruned equals the
	// snapshot's sharded query total.
	var info SnapshotInfo
	for _, in := range reg.List() {
		if in.Name == "sharded" {
			info = in
		}
	}
	if info.ShardedQueries != int64(len(qs)) {
		t.Fatalf("ShardedQueries = %d, want %d", info.ShardedQueries, len(qs))
	}
	if len(info.Shards) == 0 {
		t.Fatal("sharded snapshot reports no shard stats")
	}
	for _, st := range info.Shards {
		if st.Queries+st.Pruned != info.ShardedQueries {
			t.Fatalf("shard %d: %d + %d != %d", st.Shard, st.Queries, st.Pruned, info.ShardedQueries)
		}
	}
	// Hot swap: reloading the manifest under the same name retires the
	// old generation and resets the counters.
	if _, err := reg.Load("sharded", manifest); err != nil {
		t.Fatal(err)
	}
	sl2, err := reg.Acquire("sharded")
	if err != nil {
		t.Fatal(err)
	}
	defer sl2.Release()
	if _, err := stx.RunQuery(sl2.View(), qs[0]); err != nil {
		t.Fatal(err)
	}
}
