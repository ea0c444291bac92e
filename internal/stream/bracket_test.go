package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stindex/internal/datagen"
	"stindex/internal/geom"
	"stindex/internal/pagefile"
	"stindex/internal/pprtree"
	"stindex/internal/stio"
)

// bracketHistory is a random observation history that takes every branch
// of Observe: objects appear, stand still (an extension without growth —
// Touch), drift (an extension with growth, or a cut at a small lambda),
// jump (a cut), finish, and reappear a few instants later.
func bracketHistory(seed int64, nObj int, horizon int64) []midEvent {
	rng := rand.New(rand.NewSource(seed))
	type obj struct {
		live   bool
		x, y   float64
		wakeAt int64
	}
	objs := make([]obj, nObj)
	for i := range objs {
		objs[i].wakeAt = rng.Int63n(horizon / 2)
	}
	var out []midEvent
	for t := int64(0); t < horizon; t++ {
		var finals, observes []midEvent
		for i := range objs {
			o, id := &objs[i], int64(i+1)
			switch {
			case !o.live && t >= o.wakeAt:
				o.live, o.x, o.y = true, rng.Float64()*0.9, rng.Float64()*0.9
			case !o.live:
				continue
			default:
				switch k := rng.Intn(20); {
				case k == 0:
					o.live, o.wakeAt = false, t+1+rng.Int63n(8)
					finals = append(finals, midEvent{obj: id, t: t, finish: true})
					continue
				case k == 1:
					o.x, o.y = rng.Float64()*0.9, rng.Float64()*0.9
				case k < 10:
					o.x += (rng.Float64() - 0.5) * 0.004
					o.y += (rng.Float64() - 0.5) * 0.004
				}
			}
			observes = append(observes, midEvent{obj: id, t: t, rect: geom.Rect{
				MinX: o.x, MinY: o.y, MaxX: o.x + 0.02, MaxY: o.y + 0.02,
			}})
		}
		out = append(append(out, finals...), observes...)
	}
	return out
}

func applyEvents(ix *Indexer, evs []midEvent) error {
	for _, e := range evs {
		var err error
		if e.finish {
			err = ix.Finish(e.obj, e.t)
		} else {
			err = ix.Observe(e.obj, e.t, e.rect)
		}
		if err != nil {
			return fmt.Errorf("obj=%d t=%d finish=%v: %w", e.obj, e.t, e.finish, err)
		}
	}
	return nil
}

// applyGrouped applies evs in consecutive groups — sizes are taken in
// turn, the last one repeating — each group inside one write-back bracket
// of the tree, as an ingest commit group is; a group of one is a plain
// write-through update with no bracket. mid runs inside each bracket
// (group sizes above one) half-way through, after after each group.
func applyGrouped(ix *Indexer, evs []midEvent, sizes []int, mid, after func(applied int) error) error {
	for lo, g := 0, 0; lo < len(evs); g++ {
		size := sizes[min(g, len(sizes)-1)]
		hi := min(lo+size, len(evs))
		var err error
		if size == 1 {
			err = applyEvents(ix, evs[lo:hi])
		} else {
			err = ix.Tree().Batch(func() error {
				half := (lo + hi) / 2
				if err := applyEvents(ix, evs[lo:half]); err != nil {
					return err
				}
				if mid != nil {
					if err := mid(half); err != nil {
						return err
					}
				}
				return applyEvents(ix, evs[half:hi])
			})
		}
		if err == nil && after != nil {
			err = after(hi)
		}
		if err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// indexerImage is the indexer's meta section followed by its tree's page
// extent: the bytes its container holds, less the container's framing.
func indexerImage(t testing.TB, ix *Indexer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteMeta(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := pagefile.WriteExtent(&buf, ix.tree.Store(), pagefile.LayoutPPR); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readIndexer is the eager load of an indexerImage: ReadMeta, then the
// extent after it opened in memory and materialised into a writable File.
func readIndexer(t testing.TB, image []byte) *Indexer {
	t.Helper()
	r := bytes.NewReader(image)
	ix, err := ReadMeta(r)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := pagefile.OpenExtent(r, r.Size()-int64(r.Len()), r.Size(), pagefile.CodecIDCompressed, pagefile.BackendDisk)
	if err != nil {
		t.Fatal(err)
	}
	file, err := pagefile.Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.AttachStore(file); err != nil {
		t.Fatal(err)
	}
	return ix
}

func sortedPieces(t testing.TB, ix *Indexer) []pprtree.Record {
	t.Helper()
	pieces, err := ix.Pieces()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(pieces, func(a, b int) bool { return pieces[a].Ref < pieces[b].Ref })
	return pieces
}

func bracketIndexer(t testing.TB, lambda float64) *Indexer {
	t.Helper()
	ix, err := New(Options{Lambda: lambda, Tree: pprtree.Options{MaxEntries: 8, BufferPages: 16}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestBracketGroupsMatchWriteThrough: the write-back bracket is an
// optimisation only. One history applied by single write-through updates
// and in brackets of 7, of 256 and of the whole feed gives byte-identical
// images and identical query answers at every common group boundary, the
// same pieces at the end, and a tree that validates — cached MBRs and
// back-references included — in the middle of a bracket and after its
// flush (every bracket of the larger sizes, a sample of the small ones). Buffer statistics are not compared: the writer and the
// queries share the live pool, and a bracket touches it less.
func TestBracketGroupsMatchWriteThrough(t *testing.T) {
	const horizon, every = 200, 7 * 256 // a boundary of every group size below
	evs := bracketHistory(5, 70, horizon)
	if len(evs) < 4*every {
		t.Fatalf("history of %d events is too short to compare at several boundaries", len(evs))
	}
	for _, lambda := range []float64{0, 0.01} {
		type checkpoint struct {
			image   []byte
			answers []string
		}
		run := func(size int) (map[int]checkpoint, []pprtree.Record) {
			ix := bracketIndexer(t, lambda)
			// A whole-tree walk around every group is slow where groups
			// are small: walk around every stride-th, ~100 a run.
			stride, calls := max(1, len(evs)/size/100), 0
			validate := func(when string) func(int) error {
				return func(applied int) error {
					if calls++; calls%stride != 0 {
						return nil
					}
					if _, err := ix.Tree().Validate(); err != nil {
						return fmt.Errorf("%s, %d events applied: %w", when, applied, err)
					}
					return nil
				}
			}
			afterFlush := validate("after the flush")
			points := map[int]checkpoint{}
			err := applyGrouped(ix, evs, []int{size}, validate("inside the bracket"), func(applied int) error {
				if err := afterFlush(applied); err != nil {
					return err
				}
				if applied%every == 0 || applied == len(evs) {
					points[applied] = checkpoint{indexerImage(t, ix), answersMid(t, ix, horizon)}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("lambda %g, groups of %d: %v", lambda, size, err)
			}
			return points, sortedPieces(t, ix)
		}
		want, wantPieces := run(1)
		if cuts := len(wantPieces); cuts <= 70 {
			t.Fatalf("lambda %g: %d pieces for 70 objects — the history never cut", lambda, cuts)
		}
		for _, size := range []int{7, 256, len(evs)} {
			got, pieces := run(size)
			for applied, cp := range got {
				if !bytes.Equal(cp.image, want[applied].image) {
					t.Errorf("lambda %g, groups of %d: image after %d events differs from write-through", lambda, size, applied)
				}
				if !reflect.DeepEqual(cp.answers, want[applied].answers) {
					t.Errorf("lambda %g, groups of %d: answers after %d events differ from write-through", lambda, size, applied)
				}
			}
			if !reflect.DeepEqual(pieces, wantPieces) {
				t.Errorf("lambda %g, groups of %d: pieces differ from write-through", lambda, size)
			}
		}
	}
}

// FuzzBracketBoundaries puts the bracket boundaries where the fuzzer
// says: each byte of cuts is one group's size less one (0 = a single
// write-through update), the last repeating. Whatever the boundaries,
// the image and the pieces are those of write-through, and the tree
// validates inside every bracket and at the end.
func FuzzBracketBoundaries(f *testing.F) {
	// The deterministic test's group sizes, then mixed ones.
	f.Add(int64(5), false, []byte{0})
	f.Add(int64(5), true, []byte{6})
	f.Add(int64(5), false, []byte{255})
	f.Add(int64(9), true, []byte{0, 3, 0, 0, 40, 1, 255, 2})
	f.Fuzz(func(t *testing.T, seed int64, zeroLambda bool, cuts []byte) {
		if len(cuts) == 0 || len(cuts) > 64 {
			return
		}
		lambda := 0.01
		if zeroLambda {
			lambda = 0
		}
		evs := bracketHistory(seed, 25, 60)
		want := bracketIndexer(t, lambda)
		if err := applyEvents(want, evs); err != nil {
			t.Fatal(err)
		}
		sizes := make([]int, len(cuts))
		for i, c := range cuts {
			sizes[i] = int(c) + 1
		}
		got := bracketIndexer(t, lambda)
		err := applyGrouped(got, evs, sizes, func(int) error {
			_, err := got.Tree().Validate()
			return err
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := got.Tree().Validate(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(indexerImage(t, got), indexerImage(t, want)) {
			t.Errorf("seed %d lambda %g groups %v: image differs from write-through", seed, lambda, sizes)
		}
		if !reflect.DeepEqual(sortedPieces(t, got), sortedPieces(t, want)) {
			t.Errorf("seed %d lambda %g groups %v: pieces differ from write-through", seed, lambda, sizes)
		}
	})
}

// BenchmarkStreamApply applies the end-to-end benchmark's feed shape (a
// datagen.Random dataset flattened by stio.ObservationsFromObjects,
// lambda 0.01, default 50-entry nodes; ~375 objects live at a time, as
// on ingest-mixed) in brackets of 256 events — what one ingest commit
// group costs below the journal. One op is the whole feed; ns/record is
// the figure to read.
func BenchmarkStreamApply(b *testing.B) {
	objs, err := datagen.Random(datagen.RandomConfig{N: 1500, Horizon: 200, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var evs []midEvent
	for _, o := range stio.ObservationsFromObjects(objs) {
		evs = append(evs, midEvent{obj: o.ObjectID, t: o.T, rect: o.Rect, finish: o.Final})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := New(Options{Lambda: 0.01}, evs[0].t)
		if err != nil {
			b.Fatal(err)
		}
		if err := applyGrouped(ix, evs, []int{256}, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/record")
}
