package stio

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"stindex/internal/datagen"
	"stindex/internal/geom"
	"stindex/internal/trajectory"
)

func TestObjectsRoundTrip(t *testing.T) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteObjects(&buf, objs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadObjects(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(objs) {
		t.Fatalf("%d objects back, want %d", len(got), len(objs))
	}
	for i, o := range objs {
		g := got[i]
		if g.ID != o.ID || g.Start() != o.Start() || g.Len() != o.Len() {
			t.Fatalf("object %d header mismatch", i)
		}
		for j := 0; j < o.Len(); j++ {
			if g.InstantRect(j) != o.InstantRect(j) {
				t.Fatalf("object %d instant %d differs: %v vs %v",
					i, j, g.InstantRect(j), o.InstantRect(j))
			}
		}
		a, b := o.Breakpoints(), g.Breakpoints()
		if len(a) != len(b) {
			t.Fatalf("object %d breakpoints %v vs %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("object %d breakpoint %d differs", i, j)
			}
		}
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	in := []Record{
		{Rect: geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.3, MaxY: 0.4}, Interval: geom.Interval{Start: 5, End: 17}, ObjectID: 42},
		{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 1e-9, MaxY: 1e-9}, Interval: geom.Interval{Start: 0, End: 1}, ObjectID: -3},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("%d records back, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], in[i])
		}
	}
}

func TestReadRecordsRejectsGarbage(t *testing.T) {
	if _, err := ReadRecords(strings.NewReader("not json\n")); err == nil {
		t.Fatal("accepted garbage")
	}
	// Inverted rect.
	if _, err := ReadRecords(strings.NewReader(`{"id":1,"start":0,"end":5,"minx":1,"miny":0,"maxx":0,"maxy":1}` + "\n")); err == nil {
		t.Fatal("accepted inverted rect")
	}
	// Empty interval.
	if _, err := ReadRecords(strings.NewReader(`{"id":1,"start":5,"end":5,"minx":0,"miny":0,"maxx":1,"maxy":1}` + "\n")); err == nil {
		t.Fatal("accepted empty interval")
	}
}

func TestReadObjectsRejectsGarbage(t *testing.T) {
	if _, err := ReadObjects(strings.NewReader("nope\n")); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := ReadObjects(strings.NewReader(`{"id":1,"start":0,"rects":[]}` + "\n")); err == nil {
		t.Fatal("accepted object with no instants")
	}
}

func TestObservationsRoundTrip(t *testing.T) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	obs := ObservationsFromObjects(objs)
	// Time-ordered, finals before observations within an instant.
	for i := 1; i < len(obs); i++ {
		if obs[i].T < obs[i-1].T {
			t.Fatalf("observations out of order at %d", i)
		}
		if obs[i].T == obs[i-1].T && obs[i].Final && !obs[i-1].Final {
			t.Fatalf("final event after observation at instant %d", obs[i].T)
		}
	}
	// One observation per alive instant plus one final per object.
	wantCount := len(objs)
	for _, o := range objs {
		wantCount += o.Len()
	}
	if len(obs) != wantCount {
		t.Fatalf("%d observations, want %d", len(obs), wantCount)
	}

	var buf bytes.Buffer
	if err := WriteObservations(&buf, obs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadObservations(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(obs) {
		t.Fatalf("%d observations back, want %d", len(got), len(obs))
	}
	for i := range obs {
		if got[i] != obs[i] {
			t.Fatalf("observation %d differs: %+v vs %+v", i, got[i], obs[i])
		}
	}
}

func TestReadObservationsRejectsGarbage(t *testing.T) {
	if _, err := ReadObservations(strings.NewReader("bad\n")); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := ReadObservations(strings.NewReader(`{"id":1,"t":5,"minx":1,"maxx":0,"miny":0,"maxy":1}` + "\n")); err == nil {
		t.Fatal("accepted inverted rect")
	}
	// Final events carry no rect and must parse.
	got, err := ReadObservations(strings.NewReader(`{"id":1,"t":5,"final":true}` + "\n"))
	if err != nil || len(got) != 1 || !got[0].Final {
		t.Fatalf("final event: %v %v", got, err)
	}
}

func TestEmptyStreams(t *testing.T) {
	objs, err := ReadObjects(strings.NewReader(""))
	if err != nil || len(objs) != 0 {
		t.Fatalf("empty object stream: %d objects, err=%v", len(objs), err)
	}
	recs, err := ReadRecords(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty record stream: %d records, err=%v", len(recs), err)
	}
}

// refObservations is ObservationsFromObjects' order by the comparison
// sort it replaced: each object's observations and final event, object
// by object, sorted by sort.SliceStable on (T, finals first).
func refObservations(objs []*trajectory.Object) []Observation {
	var out []Observation
	for _, o := range objs {
		for t := o.Start(); t < o.End(); t++ {
			out = append(out, Observation{ObjectID: o.ID, T: t, Rect: o.At(t)})
		}
		out = append(out, Observation{ObjectID: o.ID, T: o.End(), Final: true})
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].T != out[b].T {
			return out[a].T < out[b].T
		}
		return out[a].Final && !out[b].Final
	})
	return out
}

// TestObservationsMatchStableSort holds the radix order to the reference:
// many objects alive at every instant of a short horizon, one object
// listed twice, and objects far before and after the rest, whose span
// takes every byte of the time key.
func TestObservationsMatchStableSort(t *testing.T) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 300, Horizon: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	objs = append(objs, objs[7])
	r := geom.Rect{MaxX: 0.1, MaxY: 0.1}
	for _, start := range []int64{-5, math.MinInt64 / 2, math.MaxInt64 / 2} {
		o, err := trajectory.NewObject(int64(len(objs)), start, []geom.Rect{r, r, r})
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	for _, set := range [][]*trajectory.Object{nil, objs[:1], objs[:300], objs} {
		if got, want := ObservationsFromObjects(set), refObservations(set); !slices.Equal(got, want) {
			t.Fatalf("%d objects: %d observations differ from the stable sort's %d", len(set), len(got), len(want))
		}
	}
}

// BenchmarkObservationsFromObjects flattens ingest-mixed's feed: 3 073
// random objects over horizon 1 000.
func BenchmarkObservationsFromObjects(b *testing.B) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 3073, Horizon: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ObservationsFromObjects(objs)
	}
}
