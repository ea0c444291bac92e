package check

import (
	"bytes"
	"fmt"
	"os"
	"sync"

	stx "stindex"
	"stindex/internal/pagefile"
)

// DiffConfig parameterises one differential run. The zero value is
// filled in by withDefaults: every kind, all three backends (built in
// memory, reopened through the pread window, reopened mapped),
// parallelism 1 and 4, a 400-object workload over horizon 1000 with 200
// queries.
type DiffConfig struct {
	Kinds       []string
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
		c.Backends = []stx.Backend{stx.BackendMemory, stx.BackendDisk, stx.BackendMmap}
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

// DiffReport summarises a completed differential run.
type DiffReport struct {
	Seed     int64
	Queries  int
	Passes   int // (kind, backend, parallelism) combinations compared
	Compared int // individual query comparisons
}

// RunDiff cross-checks every configured index kind against the
// brute-force oracle: build each kind in memory, reopened from a saved
// container with each configured backend but BackendMemory (see
// BuildKind), validate
// structural invariants, compare every query answer at each parallelism
// level, and round-trip each kind through a saved container twice — once
// plain (OpenIndex) and once with a shared page cache interposed, whose
// cache-served second pass must still be oracle-exact. Each kind's
// container image is additionally proven deterministic (decode +
// re-encode reproduces it byte for byte) and oracle-exact through every
// open backend. Any mismatch
// error names the seed, kind, backend, parallelism and query index —
// everything needed to reproduce it.
func RunDiff(cfg DiffConfig) (DiffReport, error) {
	cfg = cfg.withDefaults()
	rep := DiffReport{Seed: cfg.Seed}
	wl, err := GenerateWorkload(cfg.Objects, cfg.Horizon, cfg.Seed, cfg.Queries)
	if err != nil {
		return rep, err
	}
	rep.Queries = len(wl.Queries)
	for bi, backend := range cfg.Backends {
		for _, kind := range cfg.Kinds {
			idx, err := BuildKind(kind, wl, backend)
			if err != nil {
				return rep, fmt.Errorf("check: seed %d: building %s/%s: %w", cfg.Seed, kind, backend, err)
			}
			exp, err := ExpectedAnswers(idx, wl)
			if err != nil {
				return rep, fmt.Errorf("check: seed %d: %s/%s: %w", cfg.Seed, kind, backend, err)
			}
			if err := CheckInvariants(idx); err != nil {
				return rep, fmt.Errorf("check: seed %d: %s/%s: %w", cfg.Seed, kind, backend, err)
			}
			for _, par := range cfg.Parallelism {
				cfg.Logf("diff seed=%d kind=%s backend=%s parallelism=%d", cfg.Seed, kind, backend, par)
				if err := diffPass(idx, wl, exp, par); err != nil {
					return rep, fmt.Errorf("check: seed %d: %s/%s x%d: %w", cfg.Seed, kind, backend, par, err)
				}
				rep.Passes++
				rep.Compared += wl.TotalQueries()
			}
			if bi == 0 {
				cfg.Logf("diff seed=%d kind=%s container round-trip", cfg.Seed, kind)
				if err := containerPass(idx, wl, exp); err != nil {
					return rep, fmt.Errorf("check: seed %d: %s container round-trip: %w", cfg.Seed, kind, err)
				}
				rep.Passes++
				rep.Compared += wl.TotalQueries()
				cfg.Logf("diff seed=%d kind=%s shared-cache round-trip", cfg.Seed, kind)
				if err := sharedCachePass(idx, wl, exp); err != nil {
					return rep, fmt.Errorf("check: seed %d: %s shared-cache round-trip: %w", cfg.Seed, kind, err)
				}
				rep.Passes++
				rep.Compared += 2 * wl.TotalQueries()
				cfg.Logf("diff seed=%d kind=%s image round-trip", cfg.Seed, kind)
				passes, err := imagePass(idx, wl, exp, cfg.Backends)
				if err != nil {
					return rep, fmt.Errorf("check: seed %d: %s image round-trip: %w", cfg.Seed, kind, err)
				}
				rep.Passes += passes
				rep.Compared += passes * wl.TotalQueries()
				cfg.Logf("diff seed=%d kind=%s sharded scatter-gather", cfg.Seed, kind)
				records, err := shardedRecordsFor(idx, wl)
				if err != nil {
					return rep, fmt.Errorf("check: seed %d: %s sharded records: %w", cfg.Seed, kind, err)
				}
				if err := shardedDiffPass(kind, records, wl, exp); err != nil {
					return rep, fmt.Errorf("check: seed %d: %s sharded scatter-gather: %w", cfg.Seed, kind, err)
				}
				rep.Passes++
				rep.Compared += 2 * wl.TotalQueries()
			}
			// Mmap-flavoured kinds hold the container file and mapping;
			// in-memory builds make this a no-op.
			if err := stx.CloseIndex(idx); err != nil {
				return rep, fmt.Errorf("check: seed %d: closing %s/%s: %w", cfg.Seed, kind, backend, err)
			}
		}
	}
	return rep, nil
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

// containerPass round-trips the index through its on-disk container —
// SaveIndex, lazy OpenIndex, invariants, a full serial diff — proving
// the persisted image answers bit-identically to the built one.
func containerPass(idx stx.Index, wl *Workload, exp *Expected) error {
	f, err := os.CreateTemp("", "stcheck-*.stic")
	if err != nil {
		return err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	if err := stx.SaveIndex(path, idx); err != nil {
		return fmt.Errorf("saving container: %w", err)
	}
	opened, err := stx.OpenIndex(path)
	if err != nil {
		return fmt.Errorf("opening container: %w", err)
	}
	defer stx.CloseIndex(opened)
	if err := CheckInvariants(opened); err != nil {
		return fmt.Errorf("opened container: %w", err)
	}
	if err := diffRange(opened, wl, exp, 0, 1); err != nil {
		return fmt.Errorf("opened container: %w", err)
	}
	return stx.CloseIndex(opened)
}

// imagePass proves the index's container image is trustworthy end to
// end: the image is decoded and re-encoded — the encoder is
// deterministic, so the second encoding must reproduce the container
// byte for byte — and then opened through every backend flavour and
// diffed against the oracle. It returns how many oracle-diffed passes it
// ran.
func imagePass(idx stx.Index, wl *Workload, exp *Expected, backends []stx.Backend) (int, error) {
	var buf bytes.Buffer
	if _, err := stx.EncodeIndex(&buf, idx); err != nil {
		return 0, fmt.Errorf("encoding: %w", err)
	}
	image := buf.Bytes()
	decoded, err := stx.DecodeIndex(bytes.NewReader(image))
	if err != nil {
		return 0, fmt.Errorf("decoding own image: %w", err)
	}
	var again bytes.Buffer
	_, err = stx.EncodeIndex(&again, decoded)
	if cerr := stx.CloseIndex(decoded); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("re-encoding decoded image: %w", err)
	}
	if !bytes.Equal(image, again.Bytes()) {
		return 0, fmt.Errorf("re-encode not byte-identical: %d vs %d bytes", len(image), again.Len())
	}
	f, err := os.CreateTemp("", "stcheck-image-*.stic")
	if err != nil {
		return 0, err
	}
	path := f.Name()
	_, werr := f.Write(image)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	defer os.Remove(path)
	if werr != nil {
		return 0, werr
	}
	passes := 0
	for _, backend := range backends {
		opened, err := stx.OpenIndexOptions(path, stx.OpenOptions{Backend: backend})
		if err != nil {
			return passes, fmt.Errorf("opening as %s: %w", backend, err)
		}
		if err := CheckInvariants(opened); err != nil {
			stx.CloseIndex(opened)
			return passes, fmt.Errorf("opened as %s: %w", backend, err)
		}
		if err := diffRange(opened, wl, exp, 0, 1); err != nil {
			stx.CloseIndex(opened)
			return passes, fmt.Errorf("opened as %s: %w", backend, err)
		}
		if err := stx.CloseIndex(opened); err != nil {
			return passes, fmt.Errorf("closing %s open: %w", backend, err)
		}
		passes++
	}
	return passes, nil
}

// sharedCacheWrap returns an open-time store wrapper that puts cache
// beside every extent of one container as generation 1 — the registry's
// arrangement. Each call numbers the extents afresh, so a second open of
// the same container is a second session over the same generation.
// under, when non-nil, wraps each store first.
func sharedCacheWrap(cache *pagefile.SharedCache, counters *pagefile.CacheCounters, under stx.StoreWrapper) stx.StoreWrapper {
	ext := uint32(0)
	return func(s pagefile.Store) pagefile.Store {
		if under != nil {
			s = under(s)
		}
		ws := cache.WrapStore(1, ext, s, counters)
		ext++
		return ws
	}
}

// sharedCachePass round-trips the index through its container opened
// with a registry-style shared cache beside its page stores. A first
// pass warms the generation; a second session over it (the container
// opened again under the same generation) must then be oracle-exact
// without reading a page or decoding a node — every request is answered
// by a node the first session published — and the retired generation
// must release every entry.
func sharedCachePass(idx stx.Index, wl *Workload, exp *Expected) error {
	f, err := os.CreateTemp("", "stcheck-cache-*.stic")
	if err != nil {
		return err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	if err := stx.SaveIndex(path, idx); err != nil {
		return fmt.Errorf("saving container: %w", err)
	}
	cache := pagefile.NewSharedCache(16 << 20)
	counters := &pagefile.CacheCounters{}
	session := func() error {
		opened, err := stx.OpenIndexOptions(path, stx.OpenOptions{Wrap: sharedCacheWrap(cache, counters, nil)})
		if err != nil {
			return fmt.Errorf("opening container: %w", err)
		}
		err = diffRange(opened, wl, exp, 0, 1)
		if cerr := stx.CloseIndex(opened); err == nil {
			err = cerr
		}
		return err
	}
	if err := session(); err != nil {
		return fmt.Errorf("cache warm pass: %w", err)
	}
	warm := counters.Load()
	if err := session(); err != nil {
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
