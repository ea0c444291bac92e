package ingest

import (
	"io"
	"reflect"
	"sync"
	"testing"

	stx "stindex"
)

// closeCounter is a frozen container that counts its closes. Its views
// are the container's own, so they hold nothing to close.
type closeCounter struct {
	stx.Index
	closes int
}

func (c *closeCounter) Close() error {
	c.closes++
	return stx.CloseIndex(c.Index)
}

// TestLiveViews: views of one Live over a frozen container and a live
// tail answer concurrently while batches are applied; once the writer is
// idle every view answers as the parent does, each view's IOStats moves
// by its own queries' traffic alone, and only the parent closes the
// container, once.
func TestLiveViews(t *testing.T) {
	in, err := Open(Config{
		Dir: t.TempDir(), Lambda: testLambda,
		Tree: stx.PPROptions{MaxEntries: 8, BufferPages: 3},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer in.Close()

	batches := feedBatches(60)
	submitAll(t, in, batches[:25])
	if _, err := in.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	submitAll(t, in, batches[25:35])
	in.freezeMu.Lock()
	path, boundary := in.frozenPath, in.frozenMaxT
	in.freezeMu.Unlock()
	opened, err := stx.OpenIndex(path)
	if err != nil {
		t.Fatalf("OpenIndex: %v", err)
	}
	container := &closeCounter{Index: opened}
	parent := NewLive(in.handle, container, boundary)
	views := []stx.Index{parent.QueryView(), parent.QueryView()}

	everything := stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	across := stx.Interval{Start: boundary - 6, End: boundary + 6}
	type answer struct {
		ids  []int64
		nb   []stx.Neighbor
		hits []stx.TrajectoryHit
	}
	ask := func(x stx.Index) (a answer, err error) {
		if a.ids, err = x.Range(everything, across); err != nil {
			return a, err
		}
		if a.nb, err = x.Nearest(0.4, 0.2, boundary+2, 3); err != nil {
			return a, err
		}
		a.hits, err = x.Trajectory(everything, across)
		return a, err
	}

	// Both views query while the writer applies the rest of the feed.
	var wg sync.WaitGroup
	errs := make([]error, len(views))
	done := make(chan struct{})
	for i, v := range views {
		wg.Add(1)
		go func(i int, v stx.Index) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := ask(v); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, v)
	}
	submitAll(t, in, batches[35:])
	close(done)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("view %d during ingest: %v", i, err)
		}
	}

	// Settled: every view answers as the parent does.
	want := probeAnswers(t, parent)
	wantAnswer, err := ask(parent)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		if got := probeAnswers(t, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("view %d diverges from the parent:\n got %v\nwant %v", i, got, want)
		}
		if got, err := ask(v); err != nil || !reflect.DeepEqual(got, wantAnswer) {
			t.Fatalf("view %d: %+v (%v), the parent answers %+v", i, got, err, wantAnswer)
		}
	}

	// A view's counter moves by its own query's traffic: its frozen
	// view's plus the live tail pool's, which no writer moves now; the
	// other view's counter stands still.
	for i, v := range views {
		other := views[1-i]
		lv := v.(*Live)
		before, otherBefore := v.IOStats(), other.IOStats()
		frozenBefore, poolBefore := lv.frozen.IOStats(), in.Index().IOStats()
		if _, err := ask(v); err != nil {
			t.Fatal(err)
		}
		frozenAfter, poolAfter := lv.frozen.IOStats(), in.Index().IOStats()
		after := v.IOStats()
		want := stx.IOStats{
			Reads:  frozenAfter.Reads - frozenBefore.Reads + poolAfter.Reads - poolBefore.Reads,
			Writes: frozenAfter.Writes - frozenBefore.Writes + poolAfter.Writes - poolBefore.Writes,
			Hits:   frozenAfter.Hits - frozenBefore.Hits + poolAfter.Hits - poolBefore.Hits,
		}
		got := stx.IOStats{Reads: after.Reads - before.Reads, Writes: after.Writes - before.Writes, Hits: after.Hits - before.Hits}
		if got.Reads == 0 || frozenAfter.Reads == frozenBefore.Reads || poolAfter.Reads == poolBefore.Reads {
			t.Fatalf("view %d: the query missed nothing on one side (%+v, frozen %+v → %+v, pool %+v → %+v) — the check proves nothing",
				i, got, frozenBefore, frozenAfter, poolBefore, poolAfter)
		}
		if got != want {
			t.Errorf("view %d: IOStats moved by %+v, its query's own traffic is %+v", i, got, want)
		}
		if now := other.IOStats(); now != otherBefore {
			t.Errorf("view %d's query moved view %d's IOStats from %+v to %+v", i, 1-i, otherBefore, now)
		}
	}

	// Closing a view closes nothing: the container still answers.
	if err := views[0].(io.Closer).Close(); err != nil {
		t.Fatalf("closing a view: %v", err)
	}
	if container.closes != 0 {
		t.Fatalf("closing a view closed the container %d times", container.closes)
	}
	if got := probeAnswers(t, parent.QueryView()); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a view closed, a fresh view diverges:\n got %v\nwant %v", got, want)
	}
	if got := probeAnswers(t, views[1]); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a view closed, the other view diverges:\n got %v\nwant %v", got, want)
	}
	for i := 0; i < 2; i++ {
		if err := parent.Close(); err != nil {
			t.Fatalf("closing the parent: %v", err)
		}
	}
	if container.closes != 1 {
		t.Fatalf("the parent closed the container %d times, want once", container.closes)
	}
}
