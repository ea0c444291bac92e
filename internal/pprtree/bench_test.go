package pprtree

import (
	"fmt"
	"math/rand"
	"testing"

	"stindex/internal/geom"
)

// buildBenchCases are the offline-build sizes measured by BenchmarkBuild
// and budgeted by TestBuildRecordsAllocBudget: the historical 2 000-record
// case and one at the scale of a benchmark round (30 000 records over the
// paper's 1 000-instant horizon).
var buildBenchCases = []struct {
	records int
	horizon int64
}{{2000, 300}, {30000, 1000}}

func BenchmarkBuild(b *testing.B) {
	for _, c := range buildBenchCases {
		b.Run(fmt.Sprintf("records=%d", c.records), func(b *testing.B) {
			recs := randRecords(rand.New(rand.NewSource(1)), c.records, c.horizon)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildRecords(Options{}, recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSnapshotSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	recs := randRecords(rng, 5000, 300)
	tree, err := BuildRecords(Options{BufferPages: 256}, recs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := randQuery(rng)
		if _, err := tree.CountSnapshot(q, rng.Int63n(300)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntervalSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	recs := randRecords(rng, 5000, 300)
	tree, err := BuildRecords(Options{BufferPages: 256}, recs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := randQuery(rng)
		start := rng.Int63n(250)
		iv := geom.Interval{Start: start, End: start + 20}
		if _, err := tree.CountInterval(q, iv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNearestSearch is a 10-nearest-neighbour cut-off search: the
// callback stops the best-first walk at the tenth emitted record.
func BenchmarkNearestSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	recs := randRecords(rng, 5000, 300)
	tree, err := BuildRecords(Options{BufferPages: 256}, recs)
	if err != nil {
		b.Fatal(err)
	}
	left := 0
	stopAtTen := func(float64, uint64) bool { left--; return left > 0 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		left = 10
		if err := tree.NearestSearch(rng.Float64(), rng.Float64(), rng.Int63n(300), stopAtTen); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeEncodeDecode(b *testing.B) {
	n := &pnode{id: 1, leaf: true, startT: 0, endT: geom.Now}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		x, y := rng.Float64(), rng.Float64()
		n.entries = append(n.entries, pentry{
			rect:    geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01},
			insertT: int64(i), deleteT: geom.Now, ref: uint64(i),
		})
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = n.Encode(buf)
		if _, err := decodePNode(1, buf); err != nil {
			b.Fatal(err)
		}
	}
}
