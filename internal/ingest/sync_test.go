package ingest

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	stx "stindex"

	"stindex/internal/pagefile"
	"stindex/internal/service"
)

var errSyncGate = errors.New("injected journal fsync failure")

// gatedFS is an FS over the real directory whose journal segments, once
// armed, block each Sync until the test sends it a result on gate. A
// failed Sync truncates the segment to what the last good one covered:
// the frames it was to make durable are lost, as a crash would lose them.
type gatedFS struct {
	osFS
	armed   atomic.Bool
	entered chan struct{}
	gate    chan error
}

func newGatedFS() *gatedFS {
	return &gatedFS{entered: make(chan struct{}, 1), gate: make(chan error)}
}

func (g *gatedFS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil || !strings.HasPrefix(filepath.Base(path), "wal-") {
		return f, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &gatedFile{File: f, fs: g, size: fi.Size(), synced: fi.Size()}, nil
}

// gatedFile's fields change only under the journal's lock, which both
// Append and Sync hold.
type gatedFile struct {
	*os.File
	fs           *gatedFS
	size, synced int64
}

func (f *gatedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.size += int64(n)
	return n, err
}

func (f *gatedFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.entered <- struct{}{}
		if err := <-f.fs.gate; err != nil {
			if terr := f.File.Truncate(f.synced); terr != nil {
				return terr
			}
			return err
		}
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.synced = f.size
	return nil
}

// allocCounter counts the pages a tree allocates, readable while the
// tree's owner works.
type allocCounter struct {
	pagefile.Store
	n atomic.Int64
}

func (a *allocCounter) Allocate() pagefile.PageID {
	a.n.Add(1)
	return a.Store.Allocate()
}

// TestFsyncBesideApply holds a commit group's journal fsync on a gate. The
// group's apply runs to its end meanwhile — it allocates every page it
// allocates in an ungated run — and a live query issued during the block
// returns only after it, with the group in its answer. Released with an
// error instead, the fsync acks no batch of the group, latches the
// pipeline and poisons the live tree, so live queries fail-stop; a
// restart from the directory recovers exactly the acknowledged records.
func TestFsyncBesideApply(t *testing.T) {
	batches := feedBatches(40)
	const healthy, groupSize = 20, 8
	acked := flatten(batches[:healthy])
	all := flatten(batches[:healthy+groupSize])
	q := stx.Interval{Start: 0, End: 100}
	everything := stx.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}

	// run feeds the healthy batches, counts the live tree's allocations
	// from there on and hands one group to the idle writer's commit
	// directly, so the grouping is not left to timing. gate, when set,
	// drives the blocked fsync and returns after the commit is done.
	run := func(fs *gatedFS, gate func(in *Ingester, reg *service.Registry, allocs *allocCounter, group []*submission)) int64 {
		dir := t.TempDir()
		reg := service.NewRegistryConfig(service.RegistryConfig{})
		defer reg.Close()
		cfg := Config{Dir: dir, Name: "live", Registry: reg, Lambda: testLambda, Tree: testStreamOptions().PPR}
		if fs != nil {
			cfg.FS = fs
		}
		in, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer in.Close()
		submitAll(t, in, batches[:healthy])
		live := in.Index().Tree()
		allocs := &allocCounter{Store: live.Store()}
		if err := live.AttachStore(allocs); err != nil {
			t.Fatal(err)
		}
		group := make([]*submission, groupSize)
		for i := range group {
			group[i] = &submission{recs: batches[healthy+i], done: make(chan submitResult, 1)}
		}
		if gate == nil {
			in.commit(group)
			for i, sub := range group {
				if res := <-sub.done; res.err != nil {
					t.Fatalf("ungated group, batch %d: %v", i, res.err)
				}
			}
		} else {
			fs.armed.Store(true)
			gate(in, reg, allocs, group)
		}
		return allocs.n.Load()
	}
	want := run(nil, nil)
	if want == 0 {
		t.Fatal("the group allocates no page: its apply leaves no trace to wait for")
	}

	for _, syncErr := range []error{nil, errSyncGate} {
		fs := newGatedFS()
		run(fs, func(in *Ingester, reg *service.Registry, allocs *allocCounter, group []*submission) {
			committed := make(chan struct{})
			go func() {
				in.commit(group)
				close(committed)
			}()
			select {
			case <-fs.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the group's fsync never started")
			}
			for deadline := time.Now().Add(10 * time.Second); allocs.n.Load() != want; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					fs.gate <- syncErr
					fs.armed.Store(false)
					t.Fatalf("the apply allocated %d of its %d pages while the fsync was blocked", allocs.n.Load(), want)
				}
			}

			lease, err := reg.Acquire("live")
			if err != nil {
				t.Fatal(err)
			}
			defer lease.Release()
			type answer struct {
				ids []int64
				err error
			}
			answered := make(chan answer, 1)
			go func() {
				ids, err := lease.View().Range(everything, q)
				answered <- answer{ids, err}
			}()
			var got answer
			held := true
			select {
			case got = <-answered:
				held = false
				t.Errorf("a live query returned while the group's fsync was blocked: %v, %v", got.ids, got.err)
			case <-time.After(50 * time.Millisecond):
			}
			fs.gate <- syncErr
			fs.armed.Store(false)
			if held {
				got = <-answered
			}
			<-committed

			if syncErr == nil {
				for i, sub := range group {
					if res := <-sub.done; res.err != nil {
						t.Errorf("batch %d of the group: %v", i, res.err)
					}
				}
				wantIDs, err := shadowReplay(t, all).Range(everything, q)
				if err != nil {
					t.Fatal(err)
				}
				if got.err != nil || !reflect.DeepEqual(sortedIDs(got.ids), sortedIDs(wantIDs)) {
					t.Errorf("the query held by the fsync answered %v, %v; want %v", got.ids, got.err, wantIDs)
				}
				return
			}

			// Each error the failure reaches matches both the journal's
			// failure and the injected cause.
			isFailure := func(err error) bool { return errors.Is(err, ErrWALFailed) && errors.Is(err, errSyncGate) }
			for i, sub := range group {
				if res := <-sub.done; !isFailure(res.err) || res.seq != 0 {
					t.Errorf("batch %d of the group got (seq %d, %v), want no ack and the fsync failure", i, res.seq, res.err)
				}
			}
			if st := in.Stats(); st.Latched == "" || st.Accepted != int64(len(acked)) {
				t.Errorf("stats say latched=%q accepted=%d, want a latch and %d accepted", st.Latched, st.Accepted, len(acked))
			}
			if err := in.latchedErr(); !isFailure(err) {
				t.Errorf("the latched error is %v, want the fsync failure", err)
			}
			if !isFailure(got.err) {
				t.Errorf("the query held by the failed fsync returned %v, want the failure", got.err)
			}
			if _, err := lease.View().Range(everything, q); !isFailure(err) {
				t.Errorf("a later live query returned %v, want the failure", err)
			}

			crash := filepath.Join(t.TempDir(), "image")
			copyDir(t, in.cfg.Dir, crash)
			rec, err := Recover(crash, RecoverOptions{Tree: testStreamOptions().PPR})
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer rec.WAL.Close()
			if rec.Seq != uint64(len(acked)) {
				t.Fatalf("recovered %d records, %d were acknowledged", rec.Seq, len(acked))
			}
			if got, want := probeAnswers(t, rec.Index), probeAnswers(t, shadowReplay(t, acked)); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered answers diverge from the acknowledged records:\n got %v\nwant %v", got, want)
			}
		})
	}
}
