package sharding

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	stx "stindex"
)

// refPartitionShards is Partition's cut with the comparison sorts it
// replaced, sort.SliceStable by (object, start) and by (midpoint, id):
// the shard record lists the generic sorts must reproduce.
func refPartitionShards(records []stx.Record, k int) [][]stx.Record {
	grouped := append([]stx.Record(nil), records...)
	sort.SliceStable(grouped, func(i, j int) bool {
		if grouped[i].ObjectID != grouped[j].ObjectID {
			return grouped[i].ObjectID < grouped[j].ObjectID
		}
		return grouped[i].Interval.Start < grouped[j].Interval.Start
	})
	var objs []objectKey
	for lo := 0; lo < len(grouped); {
		hi := lo + 1
		for hi < len(grouped) && grouped[hi].ObjectID == grouped[lo].ObjectID {
			hi++
		}
		objs = append(objs, objectFeatures(grouped, lo, hi))
		lo = hi
	}
	sort.SliceStable(objs, func(i, j int) bool {
		if objs[i].midpoint != objs[j].midpoint {
			return objs[i].midpoint < objs[j].midpoint
		}
		return objs[i].id < objs[j].id
	})
	var shards [][]stx.Record
	for _, g := range equalCountGroups(objs, k) {
		if len(g) == 0 {
			continue
		}
		var recs []stx.Record
		for _, o := range g {
			recs = append(recs, grouped[o.lo:o.hi]...)
		}
		shards = append(shards, recs)
	}
	return shards
}

// TestPartitionMatchesStableSort holds Partition's shards to the
// reference's, record for record and in order, on a shuffled split whose
// records tie: copies of records that share object and start but not
// rectangle (so their order shows), and copies of whole objects under new
// ids, which share the original's midpoint.
func TestPartitionMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	records := testRecords(t, 400)
	maxID := int64(0)
	for _, r := range records {
		maxID = max(maxID, r.ObjectID)
	}
	n := len(records)
	for i := 0; i < n; i++ {
		r := records[i]
		if i%4 == 0 {
			r.Rect.MaxX += 0.001
			records = append(records, r)
		}
		if r := records[i]; r.ObjectID%5 == 0 {
			r.ObjectID += maxID + 1
			records = append(records, r)
		}
	}
	rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
	for _, k := range []int{1, 3, 8, 2000} {
		plan, err := Partition(records, PlanConfig{Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		want := refPartitionShards(records, k)
		if len(plan.Shards) != len(want) {
			t.Fatalf("k=%d: %d shards, reference %d", k, len(plan.Shards), len(want))
		}
		for i, sh := range plan.Shards {
			if !reflect.DeepEqual(sh.Records, want[i]) {
				t.Fatalf("k=%d shard %d: records differ from the stable sorts' order", k, i)
			}
		}
	}
}

// BenchmarkPartition plans serve-cold's snapshot: 30 000 random objects
// over horizon 1 000 split at a 150% budget (75 000 records), in 8
// temporal shards.
func BenchmarkPartition(b *testing.B) {
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 30000, Horizon: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{
		Budget: len(objs) * 3 / 2, Splitter: stx.SplitterMerge, Distribution: stx.DistributionLAGreedy,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(records, PlanConfig{Shards: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
