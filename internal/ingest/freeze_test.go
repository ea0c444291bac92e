package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	stx "stindex"

	"stindex/internal/datagen"
	"stindex/internal/geom"
	"stindex/internal/service"
	"stindex/internal/stio"
)

// within fails the test unless fn returns inside a generous deadline: a
// call that waits for a held freeze would block forever.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s blocked behind the held freeze encode", what)
	}
}

// TestFreezeEncodesOutsideLock holds a freeze between its snapshot and
// its container write. An apply and a live query both complete meanwhile,
// and the container the freeze then writes is byte-identical to
// EncodeIndexOptions of the live index at the frozen seq — the pages the
// apply rewrote reach the container as they were at the snapshot.
func TestFreezeEncodesOutsideLock(t *testing.T) {
	dir := t.TempDir()
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	in, err := Open(Config{Dir: dir, Name: "live", Registry: svc.Registry(), Lambda: testLambda, Tree: testStreamOptions().PPR})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer in.Close()
	batches := feedBatches(60)
	submitAll(t, in, batches[:40])

	held, release := make(chan struct{}), make(chan struct{})
	freezeEncodeHook = func() {
		close(held)
		<-release
	}
	defer func() { freezeEncodeHook = nil }()
	froze := make(chan error, 1)
	go func() {
		ok, err := in.Freeze()
		if err == nil && !ok {
			err = errors.New("nothing frozen with records pending")
		}
		froze <- err
	}()
	<-held

	seq := in.Seq()
	var want bytes.Buffer
	in.handle.locked(func() {
		_, err = stx.EncodeIndexOptions(&want, in.handle.ix, stx.SaveOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	within(t, "apply", func() error {
		_, err := in.Submit(batches[40])
		return err
	})
	everything := stx.Query{Rect: stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Interval: stx.Interval{Start: 0, End: 100}}
	var res service.Result
	within(t, "live query", func() error {
		res, err = svc.Query(context.Background(), "live", everything)
		return err
	})
	acked := shadowReplay(t, flatten(batches[:41]))
	wantIDs, err := acked.Range(everything.Rect, everything.Interval)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedIDs(res.IDs), sortedIDs(wantIDs)) {
		t.Fatalf("live query during the freeze: got %v, want %v", sortedIDs(res.IDs), sortedIDs(wantIDs))
	}

	close(release)
	if err := <-froze; err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("freeze-%016x.sti", seq)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("the freeze at seq %d wrote %d bytes that differ from EncodeIndexOptions' %d", seq, len(got), want.Len())
	}
}

// TestFreezeDuringApplies freezes again and again while another
// goroutine keeps submitting, so containers are encoded from snapshots
// whose pages the applies are rewriting. Every container must hold
// exactly the records up to its own seq.
func TestFreezeDuringApplies(t *testing.T) {
	dir := t.TempDir()
	in, err := Open(Config{Dir: dir, Lambda: testLambda, Tree: testStreamOptions().PPR})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer in.Close()
	batches := feedBatches(150)
	all := flatten(batches)
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for i, b := range batches {
			if _, err := in.Submit(b); err != nil {
				t.Errorf("submit batch %d: %v", i, err)
				return
			}
		}
	}()
	for froze, feeding := 0, true; feeding || froze == 0; {
		select {
		case <-fed:
			feeding = false
		default:
		}
		ok, err := in.Freeze()
		if err != nil {
			t.Fatalf("Freeze: %v", err)
		}
		if !ok {
			continue
		}
		froze++
		f, err := os.Open(in.frozenPath)
		if err != nil {
			t.Fatal(err)
		}
		x, err := stx.DecodeIndex(f)
		f.Close()
		if err != nil {
			t.Fatalf("decoding the freeze at seq %d: %v", in.frozenSeq, err)
		}
		got, want := probeAnswers(t, x), probeAnswers(t, shadowReplay(t, all[:in.frozenSeq]))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the freeze at seq %d answers\n%v\nwant\n%v", in.frozenSeq, got, want)
		}
	}
}

// dirState lists a directory's names with their sizes and times.
func dirState(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s %d %d", e.Name(), fi.Size(), fi.ModTime().UnixNano()))
	}
	return out
}

// TestNoopFreezeEncodesNothing: a freeze with nothing applied since the
// last one returns false before it encodes — it creates no file and
// allocates far less than the container it would have encoded.
func TestNoopFreezeEncodesNothing(t *testing.T) {
	dir := t.TempDir()
	in, err := Open(Config{Dir: dir, Lambda: testLambda, Tree: testStreamOptions().PPR})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer in.Close()
	submitAll(t, in, feedBatches(200))
	if ok, err := in.Freeze(); err != nil || !ok {
		t.Fatalf("first Freeze = %v, %v", ok, err)
	}
	fi, err := os.Stat(in.frozenPath)
	if err != nil {
		t.Fatal(err)
	}
	before := dirState(t, dir)

	encodes := 0
	freezeEncodeHook = func() { encodes++ }
	defer func() { freezeEncodeHook = nil }()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ok, err := in.Freeze()
	runtime.ReadMemStats(&m1)
	if err != nil || ok {
		t.Fatalf("second Freeze = %v, %v; want false, nil", ok, err)
	}
	if encodes != 0 {
		t.Fatalf("the no-op freeze reached the encode %d times", encodes)
	}
	if got := dirState(t, dir); !reflect.DeepEqual(got, before) {
		t.Fatalf("the no-op freeze changed the journal directory:\n got %v\nwant %v", got, before)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > uint64(fi.Size())/4 {
		t.Fatalf("the no-op freeze allocated %d bytes; the container it skipped is %d", alloc, fi.Size())
	}
}

// TestRecoverRemovesTempFiles: temp files a crash left between create and
// rename — this release's names and the random-suffixed names of earlier
// ones — are deleted when the journal is opened, and the state recovered
// is the one without them.
func TestRecoverRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	in, err := Open(Config{Dir: dir, Lambda: testLambda, Tree: testStreamOptions().PPR})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches := feedBatches(40)
	submitAll(t, in, batches[:20])
	if _, err := in.Freeze(); err != nil {
		t.Fatal(err)
	}
	submitAll(t, in, batches[20:])
	crash := t.TempDir()
	copyDir(t, dir, crash)
	in.Close()

	leftovers := []string{
		"freeze-00000000000000ff.sti.tmp",
		"freeze-00000000000000ff.sti.tmp-1234567",
		"CURRENT.tmp",
		"CURRENT.tmp-89",
	}
	for _, name := range leftovers {
		if err := os.WriteFile(filepath.Join(crash, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	in, err = Open(Config{Dir: crash, Tree: testStreamOptions().PPR})
	if err != nil {
		t.Fatalf("Open over the leftovers: %v", err)
	}
	defer in.Close()
	if left, _ := filepath.Glob(filepath.Join(crash, "*.tmp*")); len(left) != 0 {
		t.Fatalf("Open left %v", left)
	}
	all := flatten(batches)
	if got := in.Seq(); got != uint64(len(all)) {
		t.Fatalf("recovered seq %d, want %d", got, len(all))
	}
	if got, want := probeAnswers(t, in.Index()), probeAnswers(t, shadowReplay(t, all)); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered answers diverge:\n got %v\nwant %v", got, want)
	}
}

var errFreezeFault = errors.New("injected freeze fault")

// freezeFaults is an FS over the real directory that, once armed, fails
// one operation on the files whose names start with prefix: a Write or
// Sync of the temp file, or the Rename into place.
type freezeFaults struct {
	osFS
	op, prefix string
	armed      atomic.Bool
}

func (f *freezeFaults) fire(op, path string) error {
	if f.armed.Load() && op == f.op && strings.HasPrefix(filepath.Base(path), f.prefix) {
		return fmt.Errorf("%w: %s %s", errFreezeFault, op, filepath.Base(path))
	}
	return nil
}

func (f *freezeFaults) OpenAppend(path string) (File, error) {
	file, err := f.osFS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: file, fs: f, path: path}, nil
}

func (f *freezeFaults) Rename(oldpath, newpath string) error {
	if err := f.fire("rename", newpath); err != nil {
		return err
	}
	return f.osFS.Rename(oldpath, newpath)
}

type faultyFile struct {
	File
	fs   *freezeFaults
	path string
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if err := f.fs.fire("write", f.path); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *faultyFile) Sync() error {
	if err := f.fs.fire("sync", f.path); err != nil {
		return err
	}
	return f.File.Sync()
}

// serviceRanger answers Range through the serving name's published view.
type serviceRanger struct{ svc *service.Service }

func (s serviceRanger) Range(r stx.Rect, iv stx.Interval) ([]int64, error) {
	res, err := s.svc.Query(context.Background(), "live", stx.Query{Rect: r, Interval: iv})
	return res.IDs, err
}

// TestFreezeFaults fails a freeze at each file operation of its two
// writes — the container and CURRENT — through the FS seam. Each failed
// freeze leaves CURRENT and the previous container as they were, removes
// its temp file and counts a freeze error; the published view keeps
// answering every acked record, and a restart from the directory as the
// failure left it recovers all of them.
func TestFreezeFaults(t *testing.T) {
	batches := feedBatches(40)
	acked := flatten(batches[:30])
	want := probeAnswers(t, shadowReplay(t, acked))
	for _, prefix := range []string{"freeze-", currentFile} {
		for _, op := range []string{"write", "sync", "rename"} {
			t.Run(prefix+op, func(t *testing.T) {
				dir := t.TempDir()
				svc := service.New(service.Config{Workers: 1})
				defer svc.Close()
				faults := &freezeFaults{op: op, prefix: prefix}
				in, err := Open(Config{Dir: dir, Name: "live", Registry: svc.Registry(), Lambda: testLambda, Tree: testStreamOptions().PPR, FS: faults})
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer in.Close()
				submitAll(t, in, batches[:15])
				if _, err := in.Freeze(); err != nil {
					t.Fatal(err)
				}
				prevPath := in.frozenPath
				prevContainer, err := os.ReadFile(prevPath)
				if err != nil {
					t.Fatal(err)
				}
				prevCurrent, err := os.ReadFile(filepath.Join(dir, currentFile))
				if err != nil {
					t.Fatal(err)
				}
				submitAll(t, in, batches[15:30])

				faults.armed.Store(true)
				ok, err := in.Freeze()
				if !errors.Is(err, errFreezeFault) || ok {
					t.Fatalf("Freeze = %v, %v; want the injected %s fault", ok, err, op)
				}
				crash := t.TempDir()
				copyDir(t, dir, crash)
				if got, err := os.ReadFile(filepath.Join(dir, currentFile)); err != nil || !bytes.Equal(got, prevCurrent) {
					t.Fatalf("CURRENT after the failed freeze: %q, %v; want %q", got, err, prevCurrent)
				}
				if got, err := os.ReadFile(prevPath); err != nil || !bytes.Equal(got, prevContainer) {
					t.Fatalf("the previous container changed under the failed freeze (%v)", err)
				}
				if left, _ := filepath.Glob(filepath.Join(dir, tmpPattern)); len(left) != 0 {
					t.Fatalf("the failed freeze left %v", left)
				}
				if st := in.Stats(); st.FreezeErrors != 1 || st.Freezes != 1 || st.Latched != "" {
					t.Fatalf("stats after the failed freeze: freeze_errors=%d freezes=%d latched=%q", st.FreezeErrors, st.Freezes, st.Latched)
				}
				if got := probeAnswers(t, serviceRanger{svc}); !reflect.DeepEqual(got, want) {
					t.Fatalf("live answers after the failed freeze:\n got %v\nwant %v", got, want)
				}

				rec, err := Recover(crash, RecoverOptions{Tree: testStreamOptions().PPR})
				if err != nil {
					t.Fatalf("restart: %v", err)
				}
				defer rec.WAL.Close()
				if rec.Seq != uint64(len(acked)) {
					t.Fatalf("restart recovered %d records, %d were acked", rec.Seq, len(acked))
				}
				if got := probeAnswers(t, rec.Index); !reflect.DeepEqual(got, want) {
					t.Fatalf("restart answers:\n got %v\nwant %v", got, want)
				}
				faults.armed.Store(false)
			})
		}
	}
}

// freezeBenchFeed is the journal feed of a datagen.Random dataset of n
// objects over 600 instants (the history a freeze encodes, the shape
// ingest-mixed posts), and a generator of batches past its end: 256 fresh
// objects observed at instant i after it, so every batch is admissible.
func freezeBenchFeed(b *testing.B, n int) (history []Record, next func(i int) []Record) {
	objs, err := datagen.Random(datagen.RandomConfig{N: n, Horizon: 600, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range stio.ObservationsFromObjects(objs) {
		history = append(history, recordOf(o))
	}
	end := history[len(history)-1].T
	next = func(i int) []Record {
		recs := make([]Record, 256)
		for j := range recs {
			x, y := float64(j%16)/16, float64(j/16)/16
			recs[j] = Record{Kind: RecObserve, ObjectID: int64(n + 1 + 256*i + j), T: end + 1 + int64(i), Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}}
		}
		return recs
	}
	return history, next
}

// freezeWaits probes the handle while a freeze runs: one goroutine times
// how long the handle lock takes to acquire (what each commit group's
// validate and apply phases wait for), another times a live-tail query
// end to end. Each keeps its longest.
type freezeWaits struct {
	stop       atomic.Bool
	wg         sync.WaitGroup
	apply, qry time.Duration
}

func startFreezeWaits(h *Handle) *freezeWaits {
	w := &freezeWaits{}
	probe := func(longest *time.Duration, fn func()) {
		defer w.wg.Done()
		for !w.stop.Load() {
			start := time.Now()
			fn()
			*longest = max(*longest, time.Since(start))
			time.Sleep(50 * time.Microsecond)
		}
	}
	var io stx.IOStats
	// One instant of a small window: the query's own work is small
	// beside what it waits for.
	r, iv := stx.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.51, MaxY: 0.51}, stx.Interval{Start: 300, End: 301}
	w.wg.Add(2)
	go probe(&w.apply, func() {
		h.mu.Lock()
		h.mu.Unlock()
	})
	go probe(&w.qry, func() { h.Range(r, iv, &io) })
	return w
}

func (w *freezeWaits) finish() {
	w.stop.Store(true)
	w.wg.Wait()
}

// BenchmarkFreeze times one freeze of a live index holding the history
// of freezeBenchFeed, with one new batch applied before each so none is a
// no-op. ns/op, B/op and allocs/op are those of the freeze alone. A
// second, untimed freeze per iteration runs under two probes and reports
// how long an apply waited for the handle lock (apply-wait-us) and how
// long a live query took (query-wait-us), the longest of each freeze
// averaged over the iterations.
func BenchmarkFreeze(b *testing.B) {
	for _, objects := range []int{2000, 8000} {
		history, next := freezeBenchFeed(b, objects)
		b.Run(fmt.Sprintf("records=%d", len(history)), func(b *testing.B) {
			in, err := Open(Config{Dir: b.TempDir(), Lambda: 0.01})
			if err != nil {
				b.Fatal(err)
			}
			defer in.Close()
			for feed := history; len(feed) > 0; {
				n := min(256, len(feed))
				if _, err := in.Submit(feed[:n]); err != nil {
					b.Fatal(err)
				}
				feed = feed[n:]
			}
			batches := 0
			submit := func() {
				if _, err := in.Submit(next(batches)); err != nil {
					b.Fatal(err)
				}
				batches++
			}
			if _, err := in.Freeze(); err != nil {
				b.Fatal(err)
			}
			var apply, qry time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				submit()
				b.StartTimer()
				if ok, err := in.Freeze(); err != nil || !ok {
					b.Fatalf("Freeze = %v, %v", ok, err)
				}
				b.StopTimer()
				submit()
				w := startFreezeWaits(in.handle)
				if ok, err := in.Freeze(); err != nil || !ok {
					b.Fatalf("Freeze = %v, %v", ok, err)
				}
				w.finish()
				apply += w.apply
				qry += w.qry
				b.StartTimer()
			}
			b.ReportMetric(float64(apply.Microseconds())/float64(b.N), "apply-wait-us")
			b.ReportMetric(float64(qry.Microseconds())/float64(b.N), "query-wait-us")
		})
	}
}
