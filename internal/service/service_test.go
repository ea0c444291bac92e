package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	stx "stindex"

	"stindex/internal/pagefile"
)

// buildIndex builds a small PPR index over a fixed dataset.
func buildIndex(t *testing.T) stx.Index {
	t.Helper()
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 400, Horizon: 500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := stx.SplitDataset(objs, stx.SplitConfig{Budget: 600})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// saveContainer saves idx into a fresh container file.
func saveContainer(t *testing.T, idx stx.Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.sti")
	if err := stx.SaveIndex(path, idx); err != nil {
		t.Fatal(err)
	}
	return path
}

// decodeContainer is the eager load of a saved container.
func decodeContainer(path string) (stx.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return stx.DecodeIndex(f)
}

// testQueries is a deterministic workload over the buildIndex dataset.
func testQueries(t *testing.T, n int) []stx.Query {
	t.Helper()
	qs, err := stx.GenerateQueries(stx.QuerySnapshotMixed, 500, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) < n {
		t.Fatalf("want %d queries, generator produced %d", n, len(qs))
	}
	return qs[:n]
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRegistryLifecycle(t *testing.T) {
	path := saveContainer(t, buildIndex(t))
	reg := NewRegistryConfig(RegistryConfig{})

	if _, err := reg.Acquire("nope"); !errors.Is(err, ErrUnknownSnapshot) {
		t.Fatalf("Acquire on empty registry: got %v, want ErrUnknownSnapshot", err)
	}

	snap, err := reg.Load("data", path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Name() != "data" || snap.Gen() == 0 {
		t.Fatalf("bad snapshot identity: name=%q gen=%d", snap.Name(), snap.Gen())
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "data" {
		t.Fatalf("Names = %v, want [data]", names)
	}

	lease, err := reg.Acquire("data")
	if err != nil {
		t.Fatal(err)
	}
	infos := reg.List()
	if len(infos) != 1 {
		t.Fatalf("List returned %d entries", len(infos))
	}
	info := infos[0]
	if info.Kind != "ppr" || info.Records == 0 || info.Pages == 0 || info.Bytes == 0 {
		t.Fatalf("unpopulated info: %+v", info)
	}
	if info.Leases != 1 {
		t.Fatalf("info.Leases = %d, want 1", info.Leases)
	}

	ids, err := stx.RunQuery(lease.Index(), testQueries(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	_ = ids
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}

	if err := reg.Drop("data"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drop("data"); !errors.Is(err, ErrUnknownSnapshot) {
		t.Fatalf("second Drop: got %v, want ErrUnknownSnapshot", err)
	}
	if snap.refs.Load() != 0 {
		t.Fatalf("dropped snapshot still holds %d refs", snap.refs.Load())
	}
}

// TestLoadRefusesRetiredHybridContainer loads a hybrid container written
// before the kind stopped being persisted, both under a fresh name and as
// a hot-swap over a served one: each load fails with the error naming the
// removal and installs nothing, so the served snapshot stays in place.
func TestLoadRefusesRetiredHybridContainer(t *testing.T) {
	retired := filepath.Join("..", "..", "testdata", "hybrid-v2-compressed.sti")
	reg := NewRegistryConfig(RegistryConfig{CacheBytes: 1 << 20})
	defer reg.Close()
	snap, err := reg.Load("data", saveContainer(t, buildIndex(t)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fresh", "data"} {
		if _, err := reg.Load(name, retired); err == nil || !strings.Contains(err.Error(), `index kind "hybrid" is no longer persisted`) {
			t.Fatalf("Load(%q, hybrid container) = %v, want the error naming the removal", name, err)
		}
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "data" {
		t.Fatalf("Names = %v after the refused loads, want [data]", names)
	}
	lease, err := reg.Acquire("data")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	if lease.Snapshot() != snap {
		t.Fatalf("a refused hot-swap replaced generation %d", snap.Gen())
	}
}

// TestLoadRefusesUnknownOpenFlavour: a service configured with an open
// flavour that is neither disk nor mmap loads nothing.
func TestLoadRefusesUnknownOpenFlavour(t *testing.T) {
	svc := New(Config{OpenBackend: "x"})
	defer svc.Close()
	if _, err := svc.Registry().Load("data", saveContainer(t, buildIndex(t))); err == nil {
		t.Fatal("loaded a container with open flavour \"x\"")
	}
}

// TestHotSwapDrainsOldSnapshot pins the retirement contract: after a
// swap, in-flight leases on the old generation keep answering correctly
// and the old container closes only when the last lease releases.
func TestHotSwapDrainsOldSnapshot(t *testing.T) {
	idx := buildIndex(t)
	pathA := saveContainer(t, idx)
	pathB := saveContainer(t, idx)
	q := testQueries(t, 1)[0]
	want, err := stx.RunQuery(idx, q)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistryConfig(RegistryConfig{})
	oldSnap, err := reg.Load("data", pathA)
	if err != nil {
		t.Fatal(err)
	}
	oldLease, err := reg.Acquire("data")
	if err != nil {
		t.Fatal(err)
	}

	newSnap, err := reg.Load("data", pathB) // hot-swap
	if err != nil {
		t.Fatal(err)
	}
	if newSnap.Gen() <= oldSnap.Gen() {
		t.Fatalf("swap did not advance generation: %d -> %d", oldSnap.Gen(), newSnap.Gen())
	}
	// Old snapshot is retired (registry ref released) but the in-flight
	// lease still pins it open.
	if refs := oldSnap.refs.Load(); refs != 1 {
		t.Fatalf("retired snapshot refs = %d, want 1 (the lease)", refs)
	}
	got, err := stx.RunQuery(oldLease.View(), q)
	if err != nil {
		t.Fatalf("query on retired-but-leased snapshot: %v", err)
	}
	if !sameIDs(got, want) {
		t.Fatalf("retired snapshot answered %v, want %v", got, want)
	}
	if err := oldLease.Release(); err != nil {
		t.Fatal(err)
	}
	if refs := oldSnap.refs.Load(); refs != 0 {
		t.Fatalf("old snapshot refs after drain = %d, want 0", refs)
	}
	// The new generation serves.
	sess := NewSession(reg)
	res, err := sess.Query(context.Background(), "data", q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != newSnap.Gen() || !sameIDs(res.IDs, want) {
		t.Fatalf("post-swap query: gen=%d ids=%v, want gen=%d ids=%v", res.Gen, res.IDs, newSnap.Gen(), want)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesAcrossHotSwap is the satellite -race test: many
// goroutines query one registered read-only container (decoded eagerly
// and published, or loaded through each open flavour: the pread window,
// the mapping) while the main goroutine hot-swaps the snapshot
// underneath them. Every answer must be bit-identical to the serial
// baseline and nothing may touch a closed store (the race detector and
// CloseIndex's idempotence guard that).
func TestConcurrentQueriesAcrossHotSwap(t *testing.T) {
	for _, leg := range []string{"decoded", "disk", "mmap"} {
		t.Run(leg, func(t *testing.T) {
			idx := buildIndex(t)
			queries := testQueries(t, 100)
			// Serial baseline on the build itself.
			want := make([][]int64, len(queries))
			for i, q := range queries {
				ids, err := stx.RunQuery(idx, q)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = ids
			}

			// Two identical containers to swap between, read the leg's
			// way, plus the build itself published directly.
			pathA := saveContainer(t, idx)
			pathB := saveContainer(t, idx)
			reg := NewRegistryConfig(RegistryConfig{})
			if leg != "decoded" {
				reg = NewRegistryConfig(RegistryConfig{OpenBackend: stx.Backend(leg)})
			}
			load := func(path string) error {
				if leg != "decoded" {
					_, err := reg.Load("data", path)
					return err
				}
				x, err := decodeContainer(path)
				if err == nil {
					_, err = reg.Publish("data", x)
				}
				return err
			}
			if err := load(pathA); err != nil {
				t.Fatal(err)
			}

			const workers = 8
			const rounds = 3
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			start := make(chan struct{})
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					sess := NewSession(reg)
					<-start
					for round := 0; round < rounds; round++ {
						for i, q := range queries {
							res, err := sess.Query(context.Background(), "data", q)
							if err != nil {
								errCh <- fmt.Errorf("worker %d round %d query %d: %w", w, round, i, err)
								return
							}
							if !sameIDs(res.IDs, want[i]) {
								errCh <- fmt.Errorf("worker %d round %d query %d: got %v, want %v", w, round, i, res.IDs, want[i])
								return
							}
						}
					}
				}(w)
			}
			close(start)
			// Hot-swap continuously while the workers run: alternate the
			// two containers, then republish the in-memory build.
			swapDone := make(chan struct{})
			go func() {
				defer close(swapDone)
				paths := []string{pathB, pathA}
				for i := 0; i < 6; i++ {
					if err := load(paths[i%2]); err != nil {
						errCh <- fmt.Errorf("swap %d: %w", i, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
				if _, err := reg.Publish("data", idx); err != nil {
					errCh <- fmt.Errorf("publish swap: %w", err)
				}
			}()
			wg.Wait()
			<-swapDone
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// gateIndex is a test double whose queries block until the gate opens —
// for exercising queueing, rejection and timeouts deterministically.
// started receives one value per query the moment it begins executing.
type gateIndex struct {
	gate    chan struct{}
	started chan struct{}
}

func newGateIndex() *gateIndex {
	return &gateIndex{gate: make(chan struct{}), started: make(chan struct{}, 16)}
}

func (g *gateIndex) block() ([]int64, error) {
	g.started <- struct{}{}
	<-g.gate
	return []int64{1}, nil
}

func (g *gateIndex) Snapshot(stx.Rect, int64) ([]int64, error)     { return g.block() }
func (g *gateIndex) Range(stx.Rect, stx.Interval) ([]int64, error) { return g.block() }
func (g *gateIndex) Nearest(float64, float64, int64, int) ([]stx.Neighbor, error) {
	_, err := g.block()
	return nil, err
}
func (g *gateIndex) Trajectory(stx.Rect, stx.Interval) ([]stx.TrajectoryHit, error) {
	_, err := g.block()
	return nil, err
}
func (g *gateIndex) ResetBuffer()         {}
func (g *gateIndex) IOStats() stx.IOStats { return stx.IOStats{} }
func (g *gateIndex) Pages() int           { return 1 }
func (g *gateIndex) Bytes() int64         { return 1 }
func (g *gateIndex) Records() int         { return 1 }
func (g *gateIndex) Kind() string         { return "gate" }
func (g *gateIndex) QueryView() stx.Index { return g }

func snapshotQuery() stx.Query {
	return stx.Query{
		Rect:     stx.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		Interval: stx.Interval{Start: 0, End: 1},
	}
}

func TestServiceServesAndMeters(t *testing.T) {
	idx := buildIndex(t)
	queries := testQueries(t, 50)
	want := make([][]int64, len(queries))
	for i, q := range queries {
		ids, err := stx.RunQuery(idx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}

	svc := New(Config{Workers: 4, QueueDepth: 16})
	defer svc.Close()
	if _, err := svc.Registry().Publish("default", idx); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				res, err := svc.Query(context.Background(), "default", q)
				if err != nil {
					errCh <- err
					return
				}
				if !sameIDs(res.IDs, want[i]) {
					errCh <- fmt.Errorf("query %d: got %v, want %v", i, res.IDs, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	m := svc.Metrics()
	if wantN := int64(8 * len(queries)); m.Completed != wantN {
		t.Fatalf("Completed = %d, want %d", m.Completed, wantN)
	}
	if m.QPS <= 0 || m.P50US <= 0 || m.P99US < m.P50US {
		t.Fatalf("degenerate latency metrics: %+v", m)
	}
	if len(m.Snapshots) != 1 || m.Snapshots[0].Queries != m.Completed {
		t.Fatalf("snapshot metrics out of step: %+v", m.Snapshots)
	}

	if _, err := svc.Query(context.Background(), "missing", queries[0]); !errors.Is(err, ErrUnknownSnapshot) {
		t.Fatalf("unknown snapshot: got %v", err)
	}
	m = svc.Metrics()
	if m.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", m.Failed)
	}
}

func TestServiceRejectWhenFull(t *testing.T) {
	gate := newGateIndex()
	svc := New(Config{Workers: 1, QueueDepth: 1, RejectWhenFull: true})
	if _, err := svc.Registry().Publish("g", gate); err != nil {
		t.Fatal(err)
	}

	q := snapshotQuery()
	results := make(chan error, 2)
	// First query occupies the worker (blocked on the gate)...
	go func() {
		_, err := svc.Query(context.Background(), "g", q)
		results <- err
	}()
	<-gate.started
	// ...second fills the one queue slot.
	go func() {
		_, err := svc.Query(context.Background(), "g", q)
		results <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for svc.QueueDepth() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if svc.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d, want 1", svc.QueueDepth())
	}

	if _, err := svc.Query(context.Background(), "g", q); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third query: got %v, want ErrQueueFull", err)
	}
	if m := svc.Metrics(); m.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", m.Rejected)
	}

	close(gate.gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("blocked query %d: %v", i, err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceTimeout(t *testing.T) {
	gate := newGateIndex()
	svc := New(Config{Workers: 1, QueueDepth: 4, DefaultTimeout: 30 * time.Millisecond})
	if _, err := svc.Registry().Publish("g", gate); err != nil {
		t.Fatal(err)
	}

	_, err := svc.Query(context.Background(), "g", snapshotQuery())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if m := svc.Metrics(); m.TimedOut != 1 {
		t.Fatalf("TimedOut = %d, want 1", m.TimedOut)
	}

	close(gate.gate) // let the worker finish the abandoned query
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceCloseIsGracefulAndIdempotent(t *testing.T) {
	idx := buildIndex(t)
	svc := New(Config{Workers: 2})
	snap, err := svc.Registry().Publish("default", idx)
	if err != nil {
		t.Fatal(err)
	}
	q := testQueries(t, 1)[0]
	if _, err := svc.Query(context.Background(), "default", q); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Query(context.Background(), "default", q); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close query: got %v, want ErrClosed", err)
	}
	if refs := snap.refs.Load(); refs != 0 {
		t.Fatalf("snapshot refs after Close = %d, want 0", refs)
	}
}

func TestSessionViewFollowsGeneration(t *testing.T) {
	idx := buildIndex(t)
	path := saveContainer(t, idx)
	q := testQueries(t, 1)[0]
	want, err := stx.RunQuery(idx, q)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistryConfig(RegistryConfig{})
	first, err := reg.Load("data", path)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(reg)
	res1, err := sess.Query(context.Background(), "data", q)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Gen != first.Gen() || !sameIDs(res1.IDs, want) {
		t.Fatalf("first query: %+v", res1)
	}

	second, err := reg.Load("data", path) // swap
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sess.Query(context.Background(), "data", q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Gen != second.Gen() {
		t.Fatalf("session kept serving gen %d after swap to %d", res2.Gen, second.Gen())
	}
	if !sameIDs(res2.IDs, want) {
		t.Fatalf("post-swap ids: got %v, want %v", res2.IDs, want)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Record(3 * time.Microsecond) // bucket [2,4)µs -> upper bound 4µs
	}
	for i := 0; i < 10; i++ {
		h.Record(900 * time.Microsecond) // bucket [512,1024)µs -> 1024µs
	}
	if got := h.Quantile(0.50); got != 4*time.Microsecond {
		t.Fatalf("p50 = %v, want 4µs", got)
	}
	if got := h.Quantile(0.99); got != 1024*time.Microsecond {
		t.Fatalf("p99 = %v, want 1024µs", got)
	}
	if mean := h.Mean(); mean <= 0 {
		t.Fatalf("mean = %v", mean)
	}
	var empty Histogram
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", got)
	}
}

// errReadFault is the failure faultyStore injects.
var errReadFault = errors.New("injected read fault")

// faultyStore fails every third page read while armed — reads are
// counted armed or not — and is transparent otherwise.
type faultyStore struct {
	pagefile.Store
	armed atomic.Bool
	reads atomic.Uint64
}

func (s *faultyStore) ReadPage(id pagefile.PageID, dst []byte) error {
	if s.reads.Add(1)%3 == 0 && s.armed.Load() {
		return fmt.Errorf("page %d: %w", id, errReadFault)
	}
	return s.Store.ReadPage(id, dst)
}

// ReadOnly forwards the wrapped store's read-only flavour.
func (s *faultyStore) ReadOnly() bool {
	ro, ok := s.Store.(interface{ ReadOnly() bool })
	return ok && ro.ReadOnly()
}

// TestHotSwapUnderStoreFaults drains a snapshot whose page store is
// failing. A container is opened through a fault-injecting store wrapper
// (every third read errors) and published; workers query it while the
// registry hot-swaps to a healthy copy underneath them. The contract
// under fire: every query either matches the fault-free baseline or
// fails with the injected error — never a silently wrong answer — and
// the failing snapshot still drains normally: its refcount reaches zero
// and its container file closes without deadlock.
func TestHotSwapUnderStoreFaults(t *testing.T) {
	idx := buildIndex(t)
	queries := testQueries(t, 40)
	want := make([][]int64, len(queries))
	for i, q := range queries {
		ids, err := stx.RunQuery(idx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}
	faultyPath := saveContainer(t, idx)
	healthyPath := saveContainer(t, idx)

	// Open the container with every extent store wrapped in a disarmed
	// faultyStore: the open itself (root-log validation reads) must
	// succeed, then arming starts the failures.
	var stores []*faultyStore
	faultIdx, err := stx.OpenIndexOptions(faultyPath, stx.OpenOptions{Wrap: func(s pagefile.Store) pagefile.Store {
		fs := &faultyStore{Store: s}
		stores = append(stores, fs)
		return fs
	}})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistryConfig(RegistryConfig{})
	faultSnap, err := reg.Publish("data", faultIdx)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the faulted snapshot so it must drain through us even after
	// the swap retires it.
	drainLease, err := reg.Acquire("data")
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range stores {
		fs.armed.Store(true)
	}

	const workers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	var injected atomic.Int64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			sess := NewSession(reg)
			for round := 0; round < 3; round++ {
				for i, q := range queries {
					res, err := sess.Query(context.Background(), "data", q)
					if err != nil {
						if !errors.Is(err, errReadFault) {
							errCh <- fmt.Errorf("worker %d round %d query %d: unexpected error %v", w, round, i, err)
							return
						}
						injected.Add(1)
						continue
					}
					if !sameIDs(res.IDs, want[i]) {
						errCh <- fmt.Errorf("worker %d round %d query %d: got %v, want %v", w, round, i, res.IDs, want[i])
						return
					}
				}
			}
		}(w)
	}
	// Swap to the healthy container mid-drain.
	time.Sleep(2 * time.Millisecond)
	healthySnap, err := reg.Load("data", healthyPath)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The retired, still-failing snapshot keeps honouring the
	// fail-stop contract through the drain lease...
	sawInjected := false
	for i, q := range queries {
		ids, err := stx.RunQuery(drainLease.View(), q)
		if err != nil {
			if !errors.Is(err, errReadFault) {
				t.Fatalf("drain query %d: unexpected error %v", i, err)
			}
			sawInjected = true
			continue
		}
		if !sameIDs(ids, want[i]) {
			t.Fatalf("drain query %d: got %v, want %v", i, ids, want[i])
		}
	}
	if !sawInjected && injected.Load() == 0 {
		t.Fatal("fault schedule never fired: the test exercised nothing")
	}
	// ...and still drains: the last release closes the container even
	// though its store is mid-failure.
	if refs := faultSnap.refs.Load(); refs != 1 {
		t.Fatalf("retired faulted snapshot refs = %d, want 1 (the drain lease)", refs)
	}
	if err := drainLease.Release(); err != nil {
		t.Fatalf("releasing last lease on faulted snapshot: %v", err)
	}
	if refs := faultSnap.refs.Load(); refs != 0 {
		t.Fatalf("faulted snapshot refs after drain = %d, want 0", refs)
	}
	// The healthy generation serves exactly, fault-free.
	sess := NewSession(reg)
	for i, q := range queries {
		res, err := sess.Query(context.Background(), "data", q)
		if err != nil {
			t.Fatalf("post-swap query %d: %v", i, err)
		}
		if res.Gen != healthySnap.Gen() || !sameIDs(res.IDs, want[i]) {
			t.Fatalf("post-swap query %d: gen=%d ids=%v, want gen=%d ids=%v",
				i, res.Gen, res.IDs, healthySnap.Gen(), want[i])
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}
