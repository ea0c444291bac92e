package ingest

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	stx "stindex"

	"stindex/internal/service"
)

// TestLiveViewCombinesFrozenAndTail: after a freeze, queries against the
// published name must see frozen history and the live tail as one index,
// answer-identical to a never-frozen replay.
func TestLiveViewCombinesFrozenAndTail(t *testing.T) {
	dir := t.TempDir()
	reg := service.NewRegistryConfig(service.RegistryConfig{CacheBytes: 1 << 20})
	defer reg.Close()
	in, err := Open(Config{
		Dir: dir, Name: "live", Registry: reg,
		Lambda: testLambda, Tree: testStreamOptions().PPR,
		Codec: stx.CodecCompressed,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer in.Close()

	batches := feedBatches(40)
	half := len(batches) / 2
	submitAll(t, in, batches[:half])
	if _, err := in.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	submitAll(t, in, batches[half:])

	lease, err := reg.Acquire("live")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer lease.Release()
	view := lease.View()
	lv, ok := view.(*Live)
	if !ok {
		t.Fatalf("view is %T, want *Live", view)
	}
	if lv.Boundary() == 0 {
		t.Fatal("published view has no freeze boundary — the frozen part is unused")
	}
	if lv.Kind() != "live" {
		t.Fatalf("kind = %q", lv.Kind())
	}

	shadow := shadowReplay(t, flatten(batches))
	if got, want := probeAnswers(t, view), probeAnswers(t, shadow); !reflect.DeepEqual(got, want) {
		t.Fatalf("combined view diverges from shadow replay:\n got %v\nwant %v", got, want)
	}
	// Instant queries on both sides of the boundary.
	for _, at := range []int64{lv.Boundary() - 3, lv.Boundary(), lv.Boundary() + 3} {
		got, err := view.Snapshot(stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, at)
		if err != nil {
			t.Fatalf("snapshot @%d: %v", at, err)
		}
		want, err := shadow.Snapshot(stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, at)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedIDs(got), sortedIDs(want)) {
			t.Fatalf("snapshot @%d: got %v, want %v", at, sortedIDs(got), sortedIDs(want))
		}
	}
	if in.Stats().Accepted != in.Stats().WALRecords {
		t.Fatalf("accepted %d != wal records %d", in.Stats().Accepted, in.Stats().WALRecords)
	}
}

// TestZeroDowntimeFreezeSwap hammers the published name with queries
// from several goroutines while the pipeline ingests and freezes
// repeatedly; not a single query may fail and answers must always be a
// consistent prefix of the feed.
func TestZeroDowntimeFreezeSwap(t *testing.T) {
	dir := t.TempDir()
	svc := service.New(service.Config{Workers: 4, CacheMB: 1})
	defer svc.Close()
	in, err := Open(Config{
		Dir: dir, Name: "live", Registry: svc.Registry(),
		Lambda: testLambda, Tree: testStreamOptions().PPR,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer in.Close()

	batches := feedBatches(60)
	var stop atomic.Bool
	var queryErr atomic.Value
	var queries atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := stx.Query{
				Rect:     stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
				Interval: stx.Interval{Start: 0, End: 100},
			}
			for !stop.Load() {
				if _, err := svc.Query(context.Background(), "live", q); err != nil {
					queryErr.CompareAndSwap(nil, err)
					return
				}
				queries.Add(1)
			}
		}()
	}
	for i, b := range batches {
		if _, err := in.Submit(b); err != nil {
			t.Fatalf("submit batch %d: %v", i, err)
		}
		if i%10 == 9 {
			if _, err := in.Freeze(); err != nil {
				t.Fatalf("freeze after batch %d: %v", i, err)
			}
		}
	}
	// Let the queriers run across the final state briefly, then stop.
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if err := queryErr.Load(); err != nil {
		t.Fatalf("query failed during freeze swaps: %v", err)
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed — the race proved nothing")
	}
	if st := in.Stats(); st.Freezes < 2 {
		t.Fatalf("only %d freezes happened", st.Freezes)
	}

	// The final served state matches the shadow replay exactly.
	res, err := svc.Query(context.Background(), "live", stx.Query{
		Rect:     stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		Interval: stx.Interval{Start: 0, End: 100},
	})
	if err != nil {
		t.Fatalf("final query: %v", err)
	}
	shadow := shadowReplay(t, flatten(batches))
	want, err := shadow.Range(stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, stx.Interval{Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedIDs(res.IDs), sortedIDs(want)) {
		t.Fatalf("final answers: got %v, want %v", sortedIDs(res.IDs), sortedIDs(want))
	}
}

// copyDir snapshots a journal directory — the kill -9 disk image, taken
// before Close can run its final freeze.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveredViewServesReplayedTail is the restart-boundary regression
// test: freeze mid-stream, keep ingesting, crash (the journal directory
// is copied before close, exactly a kill -9 image), reopen over the
// copy. The records replayed past the freeze exist only in the live
// index, so the published view's split boundary must stay at the frozen
// container's clock — a boundary at the post-replay clock would route
// the replayed interval to the container, which cannot see it.
func TestRecoveredViewServesReplayedTail(t *testing.T) {
	dir := t.TempDir()
	tree := testStreamOptions().PPR
	in, err := Open(Config{Dir: dir, Lambda: testLambda, Tree: tree})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches := feedBatches(40)
	half := len(batches) / 2
	submitAll(t, in, batches[:half])
	if _, err := in.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	submitAll(t, in, batches[half:])
	crash := filepath.Join(t.TempDir(), "image")
	copyDir(t, dir, crash)
	in.Close()

	reg := service.NewRegistryConfig(service.RegistryConfig{})
	defer reg.Close()
	in2, err := Open(Config{Dir: crash, Name: "live", Registry: reg, Lambda: testLambda, Tree: tree})
	if err != nil {
		t.Fatalf("reopen over crash image: %v", err)
	}
	defer in2.Close()
	if st := in2.Stats(); st.Replayed == 0 {
		t.Fatal("nothing was replayed — the crash image lost its WAL tail and this test proves nothing")
	}

	lease, err := reg.Acquire("live")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer lease.Release()
	view := lease.View()
	lv, ok := view.(*Live)
	if !ok {
		t.Fatalf("view is %T, want *Live", view)
	}
	if lv.Boundary() == 0 {
		t.Fatal("recovered view has no freeze boundary")
	}
	shadow := shadowReplay(t, flatten(batches))
	if got, want := probeAnswers(t, view), probeAnswers(t, shadow); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered view diverges from shadow replay:\n got %v\nwant %v", got, want)
	}
	// The killer query: an interval strictly past the freeze boundary,
	// answerable only from the replayed tail.
	iv := stx.Interval{Start: lv.Boundary() + 1, End: lv.Boundary() + 8}
	got, err := view.Range(stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, iv)
	if err != nil {
		t.Fatalf("range past boundary: %v", err)
	}
	want, err := shadow.Range(stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, iv)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("shadow answers nothing past the boundary — the probe is inert")
	}
	if !reflect.DeepEqual(sortedIDs(got), sortedIDs(want)) {
		t.Fatalf("replayed tail invisible past the boundary: got %v, want %v", sortedIDs(got), sortedIDs(want))
	}
}

// TestReopenServesImmediately: a restart publishes the recovered state
// under the serving name before Open returns. The restarted registry
// reads the frozen container through the mapping.
func TestReopenServesImmediately(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Name: "live", Lambda: testLambda, Tree: testStreamOptions().PPR}

	reg1 := service.NewRegistryConfig(service.RegistryConfig{})
	cfg.Registry = reg1
	in, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches := feedBatches(20)
	submitAll(t, in, batches)
	if err := in.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reg1.Close()

	reg2 := service.NewRegistryConfig(service.RegistryConfig{OpenBackend: stx.BackendMmap})
	cfg.Registry = reg2
	defer reg2.Close()
	in2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer in2.Close()
	st := in2.Stats()
	// Close froze everything, so the restart replays nothing.
	if st.Replayed != 0 {
		t.Fatalf("replayed %d records after a clean close, want 0", st.Replayed)
	}
	lease, err := reg2.Acquire("live")
	if err != nil {
		t.Fatalf("Acquire after reopen: %v", err)
	}
	defer lease.Release()
	shadow := shadowReplay(t, flatten(batches))
	if got, want := probeAnswers(t, lease.View()), probeAnswers(t, shadow); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened view diverges:\n got %v\nwant %v", got, want)
	}
}

// TestLiveQueryIOExcludesWriter: the io a session reports for a query on
// the live view is that query's own pool traffic. Two pipelines run the
// same sequence — feed, probe, feed, probe — so the trees and the shared
// pool are in the same state at the last probe; in one the measuring
// session had probed before the second feed (its previous reading
// predates the writer's work), in the other it is fresh. Both must report
// the same io, non-zero, while the writer's traffic in between was not.
func TestLiveQueryIOExcludesWriter(t *testing.T) {
	batches := feedBatches(40)
	half := len(batches) / 2
	q := stx.Query{Rect: stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Interval: stx.Interval{Start: 12, End: 40}}
	run := func(measureAcrossFeed bool) int64 {
		reg := service.NewRegistryConfig(service.RegistryConfig{})
		defer reg.Close()
		// A pool too small for the query's pages, or it would all be hits.
		tree := stx.PPROptions{MaxEntries: 8, BufferPages: 3}
		in, err := Open(Config{Dir: t.TempDir(), Name: "live", Registry: reg, Lambda: testLambda, Tree: tree})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer in.Close()
		query := func(s *service.Session) int64 {
			res, err := s.Query(context.Background(), "live", q)
			if err != nil {
				t.Fatalf("query: %v", err)
			}
			return res.IO
		}
		measuring, other := service.NewSession(reg), service.NewSession(reg)
		submitAll(t, in, batches[:half])
		if measureAcrossFeed {
			query(measuring)
		} else {
			query(other)
		}
		before := in.Index().IOStats()
		submitAll(t, in, batches[half:len(batches)-1])
		if wrote := in.Index().IOStats().IO() - before.IO(); wrote == 0 {
			t.Fatal("the feed between the probes moved no page — the test proves nothing")
		}
		return query(measuring)
	}
	idle, busy := run(false), run(true)
	if idle == 0 {
		t.Fatal("probe reports io 0 — nothing to compare")
	}
	if busy != idle {
		t.Errorf("query io %d beside a feeder, %d on an idle view: the writer's page traffic is charged to the query", busy, idle)
	}
}
