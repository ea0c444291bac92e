package sharding

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	stx "stindex"
)

func testRecords(t *testing.T, n int) []stx.Record {
	t.Helper()
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: n, Horizon: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: n * 3 / 2})
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// recordMultiset canonicalises a record set for multiset comparison.
func recordMultiset(records []stx.Record) []stx.Record {
	out := append([]stx.Record(nil), records...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ObjectID != b.ObjectID {
			return a.ObjectID < b.ObjectID
		}
		if a.Interval.Start != b.Interval.Start {
			return a.Interval.Start < b.Interval.Start
		}
		return a.Interval.End < b.Interval.End
	})
	return out
}

func TestPartitionPreservesRecords(t *testing.T) {
	records := testRecords(t, 120)
	for _, k := range []int{1, 3, 8} {
		plan, err := Partition(records, PlanConfig{Shards: k})
		if err != nil {
			t.Fatalf("%d: %v", k, err)
		}
		if plan.Partitioner != "temporal" {
			t.Fatalf("%d: plan records partitioner %q", k, plan.Partitioner)
		}
		if len(plan.Shards) == 0 || len(plan.Shards) > k {
			t.Fatalf("%d: got %d shards", k, len(plan.Shards))
		}
		var union []stx.Record
		owners := make(map[int64]int)
		for si, sh := range plan.Shards {
			if len(sh.Records) == 0 {
				t.Fatalf("%d: empty shard %d in plan", k, si)
			}
			union = append(union, sh.Records...)
			for _, r := range sh.Records {
				// Object granularity: every record of an object lives in
				// one shard.
				if prev, ok := owners[r.ObjectID]; ok && prev != si {
					t.Fatalf("%d: object %d split across shards %d and %d", k, r.ObjectID, prev, si)
				}
				owners[r.ObjectID] = si
				if !r.Rect.Intersects(sh.Rect) || r.Interval.Start < sh.Interval.Start || r.Interval.End > sh.Interval.End {
					t.Fatalf("%d: shard %d bounds do not cover record %+v", k, si, r)
				}
			}
		}
		if !reflect.DeepEqual(recordMultiset(union), recordMultiset(records)) {
			t.Fatalf("%d: shard union differs from the input record multiset", k)
		}
		if plan.Records != len(records) || plan.Objects != len(owners) {
			t.Fatalf("%d: plan totals %d/%d, want %d/%d", k, plan.Records, plan.Objects, len(records), len(owners))
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	records := testRecords(t, 80)
	a, err := Partition(records, PlanConfig{Shards: 4, Partitioner: "temporal"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(records, PlanConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two partitions of the same input differ")
	}
}

func TestPartitionRejects(t *testing.T) {
	records := testRecords(t, 10)
	if _, err := Partition(records, PlanConfig{Shards: 0}); err == nil {
		t.Fatal("want error for 0 shards")
	}
	if _, err := Partition(records, PlanConfig{Shards: MaxShards + 1}); err == nil {
		t.Fatal("want error for too many shards")
	}
	if _, err := Partition(nil, PlanConfig{Shards: 2}); err == nil {
		t.Fatal("want error for empty record set")
	}
	if _, err := Partition(records, PlanConfig{Shards: 2, Partitioner: "nope"}); err == nil {
		t.Fatal("want error for unknown partitioner")
	}
	for _, gone := range []string{"spatial", "velocity"} {
		_, err := Partition(records, PlanConfig{Shards: 2, Partitioner: gone})
		if err == nil || !strings.Contains(err.Error(), "removed") {
			t.Fatalf("partitioner %s: error %v does not name the removal", gone, err)
		}
	}
}

func TestDistributeBufferPages(t *testing.T) {
	records := testRecords(t, 60)
	plan, err := Partition(records, PlanConfig{Shards: 4, Partitioner: "temporal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 4, 17, 40} {
		pages := DistributeBufferPages(plan, budget)
		want := budget
		if budget <= 0 {
			want = 10 * len(plan.Shards)
		}
		if budget > 0 && budget < len(plan.Shards) {
			want = len(plan.Shards)
		}
		total := 0
		for i, p := range pages {
			if p < 1 {
				t.Fatalf("budget %d: shard %d got %d pages", budget, i, p)
			}
			total += p
		}
		if total != want {
			t.Fatalf("budget %d: distributed %d pages, want %d", budget, total, want)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Kind:        "ppr",
		Partitioner: "temporal",
		Records:     42,
		Objects:     17,
		Shards: []ShardInfo{
			{Path: "a.shard0.sti", Rect: stx.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.3, MaxY: 0.4},
				Interval: stx.Interval{Start: 5, End: 99}, Records: 30, Objects: 12, BufferPages: 7},
			{Path: "a.shard1.sti", Rect: stx.Rect{MaxX: 1, MaxY: 1},
				Interval: stx.Interval{Start: 0, End: 300}, Records: 12, Objects: 5, BufferPages: 3},
		},
	}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, m)
	}
}

func TestManifestRejects(t *testing.T) {
	good := &Manifest{Kind: "ppr", Partitioner: "temporal", Shards: []ShardInfo{
		{Path: "x.sti", Rect: stx.Rect{MaxX: 1, MaxY: 1}, Interval: stx.Interval{End: 10}},
	}}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, good); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := ReadManifest(bytes.NewReader(append([]byte("NOPE"), raw[4:]...))); err == nil {
		t.Fatal("want error for bad magic")
	}
	if _, err := ReadManifest(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("want error for truncated manifest")
	}
	if _, err := ReadManifest(bytes.NewReader(append(append([]byte(nil), raw...), 0xFF))); err == nil {
		t.Fatal("want error for trailing garbage")
	}
	for _, bad := range []Manifest{
		{Kind: "ppr", Shards: []ShardInfo{{Path: "/abs.sti", Rect: stx.Rect{MaxX: 1, MaxY: 1}, Interval: stx.Interval{End: 1}}}},
		{Kind: "ppr", Shards: []ShardInfo{{Path: "../out.sti", Rect: stx.Rect{MaxX: 1, MaxY: 1}, Interval: stx.Interval{End: 1}}}},
		{Kind: "ppr", Shards: []ShardInfo{{Path: "", Rect: stx.Rect{MaxX: 1, MaxY: 1}, Interval: stx.Interval{End: 1}}}},
		{Kind: "ppr"},
	} {
		var b bytes.Buffer
		if err := WriteManifest(&b, &bad); err == nil {
			t.Fatalf("WriteManifest accepted invalid manifest %+v", bad)
		}
	}
}

func TestBuildAndLoad(t *testing.T) {
	records := testRecords(t, 90)
	plan, err := Partition(records, PlanConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.stm")
	m, err := Build(path, plan, BuildConfig{Kind: "ppr", BufferBudget: 30})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, m) {
		t.Fatal("loaded manifest differs from the built one")
	}
	if loaded.Records != len(records) {
		t.Fatalf("manifest records %d, want %d", loaded.Records, len(records))
	}
	if !IsManifest(path) {
		t.Fatal("IsManifest = false for a freshly built manifest")
	}
	total := 0
	for i, sh := range loaded.Shards {
		p := filepath.Join(dir, sh.Path)
		if IsManifest(p) {
			t.Fatalf("shard %d container sniffs as a manifest", i)
		}
		idx, err := stx.OpenIndex(p)
		if err != nil {
			t.Fatalf("opening shard %d: %v", i, err)
		}
		if idx.Records() != sh.Records {
			t.Fatalf("shard %d has %d records, manifest says %d", i, idx.Records(), sh.Records)
		}
		total += idx.Records()
		if err := stx.CloseIndex(idx); err != nil {
			t.Fatal(err)
		}
	}
	if total != len(records) {
		t.Fatalf("shard containers hold %d records, want %d", total, len(records))
	}
}

func TestBuildUnknownKindCleansUp(t *testing.T) {
	records := testRecords(t, 20)
	plan, err := Partition(records, PlanConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.stm")
	if _, err := Build(path, plan, BuildConfig{Kind: "bogus"}); err == nil {
		t.Fatal("want error for unknown kind")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed build left %d files behind", len(entries))
	}
}

// TestManifestFixture opens testdata/shards-spatial.stm, a manifest an
// older build wrote over two shard containers whose bounds overlap. It
// names the deleted spatial partitioner, which is only a label to the
// reader. The loaded snapshot, read through the mapping, must answer
// window queries exactly as its two containers opened directly (through
// the pread window) do, and writing the loaded manifest must give back
// the fixture's bytes.
func TestManifestFixture(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "shards-spatial.stm")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSharded(path, stx.OpenOptions{Backend: stx.BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := s.Manifest()
	if m.Partitioner != "spatial" || m.Kind != "ppr" || len(m.Shards) != 2 {
		t.Fatalf("fixture manifest %+v", m)
	}
	var direct []stx.Index
	for _, sh := range m.Shards {
		idx, err := stx.OpenIndex(filepath.Join("..", "..", "testdata", sh.Path))
		if err != nil {
			t.Fatal(err)
		}
		defer stx.CloseIndex(idx)
		direct = append(direct, idx)
	}
	hits := 0
	for _, q := range []struct {
		rect stx.Rect
		iv   stx.Interval
	}{
		{stx.Rect{MaxX: 1, MaxY: 1}, stx.Interval{Start: 0, End: 60}},
		{stx.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.7}, stx.Interval{Start: 10, End: 11}},
		{stx.Rect{MinX: 0.45, MinY: 0, MaxX: 0.55, MaxY: 1}, stx.Interval{Start: 5, End: 40}},
		{stx.Rect{MinX: 0.7, MinY: 0.1, MaxX: 0.9, MaxY: 0.5}, stx.Interval{Start: 30, End: 45}},
	} {
		got, err := s.Range(q.rect, q.iv)
		if err != nil {
			t.Fatal(err)
		}
		var parts [][]int64
		for _, idx := range direct {
			ids, err := idx.Range(q.rect, q.iv)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, ids)
		}
		if want := stx.MergeIDs(parts...); !reflect.DeepEqual(got, want) {
			t.Fatalf("range %v %v: sharded %v, shards opened directly %v", q.rect, q.iv, got, want)
		}
		hits += len(got)
	}
	if hits == 0 {
		t.Fatal("no fixture query found an object")
	}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("writing the loaded fixture manifest does not give back its bytes")
	}
}
