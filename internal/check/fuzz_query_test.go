package check

import (
	"errors"
	"math"
	"sync"
	"testing"

	stx "stindex"
)

// fuzzKind is one prebuilt index plus the oracle over its record set.
// The fleet is built once per process (sync.Once): the fuzz targets are
// differential — every answer is compared against the brute-force
// oracle — so the structures must be fixed while the inputs vary.
type fuzzKind struct {
	name   string
	idx    stx.Index
	oracle *Oracle
}

var (
	fuzzOnce  sync.Once
	fuzzFleet []fuzzKind
	fuzzErr   error
)

func fuzzKinds(tb testing.TB) []fuzzKind {
	fuzzOnce.Do(func() {
		wl, err := GenerateWorkload(60, 200, 31, 4)
		if err != nil {
			fuzzErr = err
			return
		}
		for _, kind := range AllKinds {
			idx, err := BuildKind(kind, wl)
			if err != nil {
				fuzzErr = err
				return
			}
			records := wl.Records
			if s, ok := idx.(*stx.StreamIndex); ok {
				if records, err = s.PieceRecords(); err != nil {
					fuzzErr = err
					return
				}
			}
			fuzzFleet = append(fuzzFleet, fuzzKind{name: kind, idx: idx, oracle: NewOracle(records)})
		}
	})
	if fuzzErr != nil {
		tb.Fatal(fuzzErr)
	}
	return fuzzFleet
}

// FuzzKNNQuery throws arbitrary kNN parameters — NaN and infinite
// points, non-positive and huge k, instants far outside every lifetime —
// at every index kind. Malformed parameters must fail with ErrBadQuery
// (never a panic or a hang); well-formed ones must answer bit-identically
// to the brute-force oracle.
func FuzzKNNQuery(f *testing.F) {
	f.Add(0.5, 0.5, int64(100), 3)
	f.Add(0.0, 1.0, int64(0), 1)
	f.Add(math.NaN(), 0.5, int64(50), 2)
	f.Add(0.5, math.Inf(1), int64(50), 2)
	f.Add(0.5, 0.5, int64(100), 0)
	f.Add(0.5, 0.5, int64(100), -7)
	f.Add(0.5, 0.5, int64(100), 1<<30)
	f.Add(-1e308, 1e308, int64(math.MaxInt64), 5)
	f.Add(0.25, 0.75, int64(math.MinInt64), 5)
	f.Fuzz(func(t *testing.T, x, y float64, at int64, k int) {
		for _, fk := range fuzzKinds(t) {
			got, err := fk.idx.Nearest(x, y, at, k)
			if stx.ValidateKNN(x, y, k) != nil {
				if !errors.Is(err, stx.ErrBadQuery) {
					t.Fatalf("%s: Nearest(%g, %g, %d, %d): got %v, want ErrBadQuery", fk.name, x, y, at, k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: Nearest(%g, %g, %d, %d): %v", fk.name, x, y, at, k, err)
			}
			want := fk.oracle.KNN(x, y, at, k)
			if !SameNeighbors(got, want) {
				t.Fatalf("%s: Nearest(%g, %g, %d, %d) = %v, oracle says %v", fk.name, x, y, at, k, got, want)
			}
		}
	})
}

// FuzzTrajectoryQuery throws arbitrary regions and intervals — NaN and
// inverted rectangles, empty, inverted and overflowing intervals — at
// every index kind. The answer must never panic, never error on an
// intact structure, and always match the brute-force oracle (degenerate
// inputs answer empty on both sides).
func FuzzTrajectoryQuery(f *testing.F) {
	f.Add(0.2, 0.2, 0.8, 0.8, int64(0), int64(200))
	f.Add(0.0, 0.0, 1.0, 1.0, int64(100), int64(101))
	f.Add(0.9, 0.9, 0.1, 0.1, int64(0), int64(200)) // inverted rect
	f.Add(math.NaN(), 0.0, 1.0, 1.0, int64(0), int64(200))
	f.Add(0.2, 0.2, 0.8, 0.8, int64(150), int64(50)) // inverted interval
	f.Add(0.2, 0.2, 0.8, 0.8, int64(70), int64(70))  // empty interval
	f.Add(-1e308, -1e308, 1e308, 1e308, int64(math.MinInt64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, minx, miny, maxx, maxy float64, from, to int64) {
		r := stx.Rect{MinX: minx, MinY: miny, MaxX: maxx, MaxY: maxy}
		iv := stx.Interval{Start: from, End: to}
		for _, fk := range fuzzKinds(t) {
			got, err := fk.idx.Trajectory(r, iv)
			if err != nil {
				t.Fatalf("%s: Trajectory(%+v, %+v): %v", fk.name, r, iv, err)
			}
			want := fk.oracle.Trajectory(r, iv)
			if !SameTrajectories(got, want) {
				t.Fatalf("%s: Trajectory(%+v, %+v) = %v, oracle says %v", fk.name, r, iv, got, want)
			}
		}
	})
}
