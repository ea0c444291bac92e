package check

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	stx "stindex"
	"stindex/internal/pagefile"
)

// DiffConfig parameterises one seed's run. The zero value is filled in
// by withDefaults: every kind, both open flavours (the pread window and
// the mapping), parallelism 1 and 4, a 400-object workload over horizon
// 1000 with 200 queries.
type DiffConfig struct {
	Kinds []string
	// Backends are the open flavours each kind's saved container is
	// reopened with; the built and the decoded index are checked
	// whatever they are.
	Backends    []stx.Backend
	Parallelism []int
	Objects     int
	Horizon     int64
	Queries     int
	Seed        int64
	Logf        func(format string, args ...any)
}

func (c DiffConfig) withDefaults() DiffConfig {
	if len(c.Kinds) == 0 {
		c.Kinds = AllKinds
	}
	if len(c.Backends) == 0 {
		c.Backends = pagefile.Backends
	}
	if len(c.Parallelism) == 0 {
		c.Parallelism = []int{1, 4}
	}
	if c.Objects == 0 {
		c.Objects = 400
	}
	if c.Horizon == 0 {
		c.Horizon = 1000
	}
	if c.Queries == 0 {
		c.Queries = 200
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Report summarises one seed's run.
type Report struct {
	Seed        int64
	Queries     int    // window queries in the workload
	Passes      int    // oracle-diffed passes over the whole workload
	Compared    int    // index-vs-oracle comparisons in those passes
	HTTPChecked int    // comparisons made over the HTTP serving path
	Schedules   int    // (kind, variant, schedule) fault combinations driven, plus the sharded ones
	Injected    uint64 // faults that fired across them
}

// Run is the correctness harness for one seed. It generates the
// workload once and takes every configured kind through one pipeline:
//
//   - build it in memory and compute its oracle answers, once;
//   - check the built index's invariants and diff it at every
//     parallelism level;
//   - encode it once, prove the encoding deterministic (decode +
//     re-encode is byte-identical) and write that image to one file;
//   - check the decoded image (DecodeIndex, the eager load) and the file
//     reopened with every flavour of cfg.Backends like the built index:
//     invariants, the diff at every parallelism level, and every window
//     query's cold-buffer I/O equal to the built index's (the paper's
//     AvgIO must not depend on how the container is read);
//   - over the same file, two shared-cache sessions and the fault
//     matrix (skipped when DefaultReadSchedules is empty);
//   - a sharded snapshot carved from the kind's records, diffed serially
//     and in parallel;
//   - the built index published into a service and diffed over HTTP.
//
// With faults on, a sharded fail-stop pass closes the run. Every error
// names the seed, kind, flavour, parallelism and query index —
// everything needed to replay it with stcheck.
func Run(cfg DiffConfig) (Report, error) {
	cfg = cfg.withDefaults()
	r := &run{cfg: cfg, rep: Report{Seed: cfg.Seed}}
	wl, err := GenerateWorkload(cfg.Objects, cfg.Horizon, cfg.Seed, cfg.Queries)
	if err != nil {
		return r.rep, err
	}
	r.wl = wl
	r.rep.Queries = len(wl.Queries)
	if r.dir, err = os.MkdirTemp("", "stcheck-"); err != nil {
		return r.rep, err
	}
	defer os.RemoveAll(r.dir)
	if r.http, err = startHTTP(); err != nil {
		return r.rep, err
	}
	defer r.http.close()
	for _, kind := range cfg.Kinds {
		if err := r.kind(kind); err != nil {
			return r.rep, fmt.Errorf("check: seed %d: %s: %w", cfg.Seed, kind, err)
		}
	}
	if len(DefaultReadSchedules) > 0 {
		// Sharded fan-out fail-stop: one shard's injected fault must fail
		// the whole query, never surface as a silently partial merge. One
		// pass over the PPR shard kind covers the scatter-gather layer;
		// the per-kind matrix covers every container kind's own faults.
		cfg.Logf("faults seed=%d sharded scatter-gather fail-stop", cfg.Seed)
		injected, err := shardedFaultPass(wl, r.batchExpected(), DefaultReadSchedules)
		r.rep.Injected += injected
		if err != nil {
			return r.rep, fmt.Errorf("check: seed %d: sharded fault pass: %w", cfg.Seed, err)
		}
		r.rep.Schedules += len(DefaultReadSchedules)
	}
	return r.rep, nil
}

// run is one seed's state: the workload, the directory holding each
// kind's one container, the HTTP front end and the report so far.
type run struct {
	cfg   DiffConfig
	wl    *Workload
	dir   string
	http  *httpServer
	batch *Expected
	rep   Report
}

// batchExpected is the oracle over the workload's offline split
// records — the answers of every batch-built kind — computed once.
func (r *run) batchExpected() *Expected {
	if r.batch == nil {
		r.batch = NewOracle(r.wl.Records).Expected(r.wl)
	}
	return r.batch
}

// kind runs Run's pipeline for one index kind.
func (r *run) kind(kind string) error {
	built, err := BuildKind(kind, r.wl)
	if err != nil {
		return fmt.Errorf("building: %w", err)
	}
	// The batch kinds answer like the workload's offline split records;
	// the stream kind like the pieces it cut itself.
	records, exp := r.wl.Records, r.batchExpected()
	if s, ok := built.(*stx.StreamIndex); ok {
		if records, err = s.PieceRecords(); err != nil {
			return fmt.Errorf("extracting stream pieces: %w", err)
		}
		exp = NewOracle(records).Expected(r.wl)
	}
	if err := CheckInvariants(built); err != nil {
		return fmt.Errorf("built: %w", err)
	}
	if err := r.diffAll(built, exp, "kind="+kind+" built"); err != nil {
		return fmt.Errorf("built: %w", err)
	}
	cold, err := windowIO(built, r.wl)
	if err != nil {
		return fmt.Errorf("built: %w", err)
	}
	path := filepath.Join(r.dir, kind+".stic")
	decoded, err := saveImage(built, path)
	if err != nil {
		return fmt.Errorf("image: %w", err)
	}
	if err := r.likeBuilt(decoded, exp, cold, "kind="+kind+" decoded"); err != nil {
		return fmt.Errorf("decoded: %w", err)
	}
	for _, backend := range r.cfg.Backends {
		if err := r.reopened(path, backend, exp, cold, kind); err != nil {
			return fmt.Errorf("opened %s: %w", backend, err)
		}
	}

	r.cfg.Logf("diff seed=%d kind=%s shared-cache sessions", r.cfg.Seed, kind)
	if err := sharedCachePass(path, r.wl, exp); err != nil {
		return fmt.Errorf("shared-cache sessions: %w", err)
	}
	r.rep.Passes++
	r.rep.Compared += 2 * r.wl.TotalQueries()

	if err := r.faultMatrix(kind, path, exp); err != nil {
		return err
	}

	r.cfg.Logf("diff seed=%d kind=%s sharded scatter-gather", r.cfg.Seed, kind)
	if err := shardedDiffPass(kind, records, r.wl, exp); err != nil {
		return fmt.Errorf("sharded scatter-gather: %w", err)
	}
	r.rep.Passes++
	r.rep.Compared += 2 * r.wl.TotalQueries()

	r.cfg.Logf("diff seed=%d kind=%s HTTP", r.cfg.Seed, kind)
	checked, err := r.http.pass(kind, built, r.wl, exp)
	r.rep.HTTPChecked += checked
	return err
}

// diffAll diffs idx against the oracle at every parallelism level.
func (r *run) diffAll(idx stx.Index, exp *Expected, label string) error {
	for _, par := range r.cfg.Parallelism {
		r.cfg.Logf("diff seed=%d %s parallelism=%d", r.cfg.Seed, label, par)
		if err := diffPass(idx, r.wl, exp, par); err != nil {
			return fmt.Errorf("x%d: %w", par, err)
		}
		r.rep.Passes++
		r.rep.Compared += r.wl.TotalQueries()
	}
	return nil
}

// reopened opens the kind's container with one flavour and checks it
// like the built index.
func (r *run) reopened(path string, backend stx.Backend, exp *Expected, cold []stx.IOStats, kind string) error {
	opened, err := stx.OpenIndexOptions(path, stx.OpenOptions{Backend: backend})
	if err != nil {
		return err
	}
	defer stx.CloseIndex(opened)
	if err := r.likeBuilt(opened, exp, cold, "kind="+kind+" opened "+string(backend)); err != nil {
		return err
	}
	return stx.CloseIndex(opened)
}

// likeBuilt checks a decoded or reopened copy of the built index: its
// invariants, the diff at every parallelism level, and every window
// query's cold-buffer I/O against the built index's.
func (r *run) likeBuilt(idx stx.Index, exp *Expected, cold []stx.IOStats, label string) error {
	if err := CheckInvariants(idx); err != nil {
		return err
	}
	if err := r.diffAll(idx, exp, label); err != nil {
		return err
	}
	return sameWindowIO(idx, r.wl, cold)
}

// diffPass compares every query answer against the oracle. Parallelism
// above 1 partitions the queries across goroutines, each holding its own
// QueryView, so the concurrent traversal, buffer and decode-cache paths
// are the ones exercised.
func diffPass(idx stx.Index, wl *Workload, exp *Expected, parallelism int) error {
	if parallelism <= 1 {
		return diffRange(idx, wl, exp, 0, 1)
	}
	errs := make([]error, parallelism)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(w int, view stx.Index) {
			defer wg.Done()
			errs[w] = diffRange(view, wl, exp, w, parallelism)
		}(w, idx.QueryView())
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// diffRange checks queries lo, lo+stride, lo+2*stride, … of every
// family: window answers as sets and strictly ascending, kNN answers
// verbatim (the pinned (Dist2, ObjectID) order with bit-exact distances),
// trajectory answers verbatim (ascending ObjectID with exact piece
// counts).
func diffRange(idx stx.Index, wl *Workload, exp *Expected, lo, stride int) error {
	for i := lo; i < len(wl.Queries); i += stride {
		got, err := stx.RunQuery(idx, wl.Queries[i])
		if err != nil {
			return fmt.Errorf("query %d (%+v): %w", i, wl.Queries[i], err)
		}
		if !SameIDs(got, exp.Window[i]) {
			return fmt.Errorf("query %d (%+v): index returned %v, oracle says %v",
				i, wl.Queries[i], SortedIDs(got), exp.Window[i])
		}
		if !StrictlyAscending(got) {
			return fmt.Errorf("query %d (%+v): answer %v is not strictly ascending", i, wl.Queries[i], got)
		}
	}
	for i := lo; i < len(wl.KNNQueries); i += stride {
		q := wl.KNNQueries[i]
		res, err := stx.RunQueryResult(idx, q)
		if err != nil {
			return fmt.Errorf("knn query %d (%+v): %w", i, q, err)
		}
		if !SameNeighbors(res.Neighbors, exp.KNN[i]) {
			return fmt.Errorf("knn query %d (%+v): index returned %v, oracle says %v",
				i, q, res.Neighbors, exp.KNN[i])
		}
	}
	for i := lo; i < len(wl.TrajQueries); i += stride {
		q := wl.TrajQueries[i]
		res, err := stx.RunQueryResult(idx, q)
		if err != nil {
			return fmt.Errorf("trajectory query %d (%+v): %w", i, q, err)
		}
		if !SameTrajectories(res.Trajectories, exp.Traj[i]) {
			return fmt.Errorf("trajectory query %d (%+v): index returned %v, oracle says %v",
				i, q, res.Trajectories, exp.Traj[i])
		}
	}
	return nil
}

// saveImage encodes idx once, proves the encoder deterministic — the
// image decoded and re-encoded reproduces it byte for byte — and writes
// the image to path: the one container every reopen, shared-cache
// session and fault schedule of the kind reads. It returns the decoded
// index.
func saveImage(idx stx.Index, path string) (stx.Index, error) {
	var buf bytes.Buffer
	if _, err := stx.EncodeIndex(&buf, idx); err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	image := buf.Bytes()
	decoded, err := stx.DecodeIndex(bytes.NewReader(image))
	if err != nil {
		return nil, fmt.Errorf("decoding own image: %w", err)
	}
	var again bytes.Buffer
	if _, err := stx.EncodeIndex(&again, decoded); err != nil {
		return nil, fmt.Errorf("re-encoding decoded image: %w", err)
	}
	if !bytes.Equal(image, again.Bytes()) {
		return nil, fmt.Errorf("re-encode not byte-identical: %d vs %d bytes", len(image), again.Len())
	}
	return decoded, os.WriteFile(path, image, 0o644)
}

// windowIO runs every window query of the workload on a cold buffer —
// the paper's AvgIO discipline — and returns each query's I/O counters.
func windowIO(idx stx.Index, wl *Workload) ([]stx.IOStats, error) {
	out := make([]stx.IOStats, len(wl.Queries))
	for i, q := range wl.Queries {
		idx.ResetBuffer()
		if _, err := stx.RunQuery(idx, q); err != nil {
			return nil, fmt.Errorf("query %d (%+v): %w", i, q, err)
		}
		out[i] = idx.IOStats()
	}
	return out, nil
}

// sameWindowIO requires every window query to cost idx exactly the
// cold-buffer I/O in want. A reopened container has its built index's
// page layout and buffer policy, so no read flavour may change it.
func sameWindowIO(idx stx.Index, wl *Workload, want []stx.IOStats) error {
	got, err := windowIO(idx, wl)
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("query %d (%+v): cold-buffer I/O %+v, built index %+v", i, wl.Queries[i], got[i], want[i])
		}
	}
	return nil
}

// sharedCacheWrap returns an open-time store wrapper that puts cache
// beside every extent of one container as generation 1 — the registry's
// arrangement. under, when non-nil, wraps each store first.
func sharedCacheWrap(cache *pagefile.SharedCache, counters *pagefile.CacheCounters, under stx.StoreWrapper) stx.StoreWrapper {
	return func(s pagefile.Store) pagefile.Store {
		if under != nil {
			s = under(s)
		}
		return cache.WrapStore(1, 0, s, counters)
	}
}

// sharedCachePass opens the container at path once with a registry-style
// shared cache beside its page stores, and queries it through two
// sessions, each a view of that one open, as the registry's leases are. A
// first session warms the generation; the second must then be
// oracle-exact without reading a page or decoding a node — every request
// is answered by a node the first session published — and the retired
// generation must release every entry.
func sharedCachePass(path string, wl *Workload, exp *Expected) error {
	cache := pagefile.NewSharedCache(16 << 20)
	counters := &pagefile.CacheCounters{}
	opened, err := stx.OpenIndexOptions(path, stx.OpenOptions{Wrap: sharedCacheWrap(cache, counters, nil)})
	if err != nil {
		return fmt.Errorf("opening container: %w", err)
	}
	err = cachedSessions(opened, wl, exp, cache, counters)
	if cerr := stx.CloseIndex(opened); err == nil {
		err = cerr
	}
	return err
}

// cachedSessions runs sharedCachePass's sessions over opened, then
// retires the generation.
func cachedSessions(opened stx.Index, wl *Workload, exp *Expected, cache *pagefile.SharedCache, counters *pagefile.CacheCounters) error {
	if err := diffRange(opened.QueryView(), wl, exp, 0, 1); err != nil {
		return fmt.Errorf("cache warm pass: %w", err)
	}
	warm := counters.Load()
	if err := diffRange(opened.QueryView(), wl, exp, 0, 1); err != nil {
		return fmt.Errorf("cache-served pass: %w", err)
	}
	cv := counters.Load()
	if cv.SharedHits == 0 {
		return fmt.Errorf("shared cache absorbed nothing (%d store reads)", cv.StoreReads)
	}
	if cv.StoreReads != warm.StoreReads || cv.Decodes != warm.Decodes {
		return fmt.Errorf("second session over a warm generation did %d store reads and %d decodes, want 0 and 0",
			cv.StoreReads-warm.StoreReads, cv.Decodes-warm.Decodes)
	}
	cache.Retire(1)
	if n := cache.EntriesForGen(1); n != 0 {
		return fmt.Errorf("retired generation still holds %d cache entries", n)
	}
	return nil
}
