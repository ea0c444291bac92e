package hrtree

import (
	"fmt"
	"math/rand"
	"testing"

	"stindex/internal/geom"
)

func BenchmarkBuildHR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	recs := randHRecordsBench(rng, 1500, 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildHRBench(b, recs)
	}
}

func BenchmarkSnapshotSearchHR(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	recs := randHRecordsBench(rng, 3000, 300)
	tree := buildHRBench(b, recs)
	tree.Buffer().Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := rng.Float64()*0.8, rng.Float64()*0.8
		q := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.1, MaxY: y + 0.1}
		if _, err := tree.CountSnapshot(q, rng.Int63n(300)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntervalSearchHR(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	recs := randHRecordsBench(rng, 3000, 300)
	tree := buildHRBench(b, recs)
	tree.Buffer().Reset()
	count := func(geom.Rect, uint64) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := rng.Float64()*0.8, rng.Float64()*0.8
		q := geom.Rect{MinX: x, MinY: y, MaxX: x + 0.1, MaxY: y + 0.1}
		start := rng.Int63n(280)
		if err := tree.IntervalSearch(q, geom.Interval{Start: start, End: start + 20}, count); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNearestSearchHR is a 10-nearest-neighbour cut-off search: the
// callback stops the best-first walk at the tenth emitted record.
func BenchmarkNearestSearchHR(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	recs := randHRecordsBench(rng, 3000, 300)
	tree := buildHRBench(b, recs)
	tree.Buffer().Reset()
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

func randHRecordsBench(rng *rand.Rand, n int, horizon int64) []hrec {
	recs := make([]hrec, n)
	for i := range recs {
		x, y := rng.Float64(), rng.Float64()
		start := rng.Int63n(horizon - 1)
		end := start + 1 + rng.Int63n(horizon/5)
		if end > horizon {
			end = horizon
		}
		recs[i] = hrec{
			rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 0.02, MaxY: y + 0.02},
			iv:   geom.Interval{Start: start, End: end},
			ref:  uint64(i),
		}
	}
	return recs
}

func buildHRBench(b *testing.B, recs []hrec) *Tree {
	b.Helper()
	type event struct {
		t      int64
		insert bool
		rec    int
	}
	var events []event
	for i, r := range recs {
		events = append(events, event{t: r.iv.Start, insert: true, rec: i})
		events = append(events, event{t: r.iv.End, insert: false, rec: i})
	}
	for i := 1; i < len(events); i++ {
		for j := i; j > 0; j-- {
			a, c := &events[j], &events[j-1]
			if a.t < c.t || (a.t == c.t && !a.insert && c.insert) {
				*a, *c = *c, *a
			} else {
				break
			}
		}
	}
	tree, err := New(Options{BufferPages: 64}, events[0].t)
	if err != nil {
		b.Fatal(err)
	}
	// One write-back bracket, as stindex.BuildHR replays.
	err = tree.Batch(func() error {
		for _, ev := range events {
			r := recs[ev.rec]
			if ev.insert {
				if err := tree.Insert(r.rect, r.ref, ev.t); err != nil {
					return err
				}
				continue
			}
			if ok, err := tree.Delete(r.rect, r.ref, ev.t); err != nil || !ok {
				return fmt.Errorf("delete: ok=%v err=%v", ok, err)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return tree
}
