package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	stx "stindex"
)

// buildIndexSeed builds a PPR index over a seed-controlled dataset, so
// two seeds give two snapshots with genuinely different answers.
func buildIndexSeed(t *testing.T, seed int64) stx.Index {
	t.Helper()
	objs, err := stx.GenerateRandom(stx.RandomDatasetConfig{N: 400, Horizon: 500, Seed: seed})
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

// expectedAnswers runs the workload against a private eager copy of the
// container — the reference answers for that container.
func expectedAnswers(t *testing.T, path string, queries []stx.Query) [][]int64 {
	t.Helper()
	ix, err := stx.OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer stx.CloseIndex(ix)
	out := make([][]int64, len(queries))
	for i, q := range queries {
		ids, err := stx.RunQuery(ix, q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ids
	}
	return out
}

// TestSharedCacheAbsorbsRepeatTraffic pins the shared tier's point: the
// first session's view reads and decodes each page it visits once, and
// every later session is served from those nodes — no store read, no
// decode — while its pool is charged the paper's misses as ever and
// answers stay bit-identical to an uncached registry.
func TestSharedCacheAbsorbsRepeatTraffic(t *testing.T) {
	path := saveContainer(t, buildIndexSeed(t, 11))
	queries := testQueries(t, 40)
	want := expectedAnswers(t, path, queries)

	reg := NewRegistryConfig(RegistryConfig{CacheBytes: 32 << 20})
	if reg.Cache() == nil {
		t.Fatal("configured registry has no cache")
	}
	if _, err := reg.Load("data", path); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	// Several fresh sessions in sequence: the first warms the shared
	// cache, later ones are served by it.
	var first SnapshotInfo
	for s := 0; s < 4; s++ {
		sess := NewSession(reg)
		for i, q := range queries {
			res, err := sess.Query(context.Background(), "data", q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(res.IDs, want[i]) {
				t.Fatalf("session %d query %d: ids %v, want %v", s, i, res.IDs, want[i])
			}
		}
		if s == 0 {
			first = reg.List()[0]
		}
	}
	if first.StoreReads == 0 || first.StoreReads != first.Decodes || first.SharedHits+first.Decodes != first.Hits+first.Reads {
		t.Fatalf("first session: %d store reads, %d decodes, %d shared hits, %d pool lookups; want one read per decode and every lookup a shared hit or a decode",
			first.StoreReads, first.Decodes, first.SharedHits, first.Hits+first.Reads)
	}
	if first.StoreReads > int64(first.Pages) {
		t.Fatalf("first session read %d pages of a %d-page container", first.StoreReads, first.Pages)
	}

	infos := reg.List()
	if len(infos) != 1 {
		t.Fatalf("List returned %d entries", len(infos))
	}
	info := infos[0]
	if info.StoreReads != first.StoreReads || info.Decodes != first.Decodes {
		t.Fatalf("warm generation still read or decoded: store reads %d -> %d, decodes %d -> %d",
			first.StoreReads, info.StoreReads, first.Decodes, info.Decodes)
	}
	if info.SharedHits+info.Decodes != info.Hits+info.Reads {
		t.Fatalf("shared hits %d + decodes %d, want one per pool lookup = %d",
			info.SharedHits, info.Decodes, info.Hits+info.Reads)
	}
	if info.Reads != 4*first.Reads || info.Hits != 4*first.Hits {
		t.Fatalf("pool accounting differs between sessions: %+v after one, %+v after four", first, info)
	}
	if want := 1 - float64(info.StoreReads)/float64(info.Hits+info.Reads); info.HitRate != want {
		t.Fatalf("hit rate = %v, want 1 - store reads/lookups = %v", info.HitRate, want)
	}
	if st := reg.Cache().Stats(); st.Bytes == 0 || st.Entries == 0 {
		t.Fatalf("cache reports no residency: %+v", st)
	}
}

// TestHotSwapRetiresCacheGeneration is the stale-page regression test:
// queries run concurrently with repeated hot-swaps between two different
// datasets under one name, and every answer must match the dataset of
// the generation that served it — a stale shared-cache node would break
// that. After the registry closes, no retired generation may have
// resident cache entries. Run under -race in CI.
func TestHotSwapRetiresCacheGeneration(t *testing.T) {
	pathA := saveContainer(t, buildIndexSeed(t, 11))
	pathB := saveContainer(t, buildIndexSeed(t, 77))
	queries := testQueries(t, 12)
	wantA := expectedAnswers(t, pathA, queries)
	wantB := expectedAnswers(t, pathB, queries)

	reg := NewRegistryConfig(RegistryConfig{CacheBytes: 16 << 20})
	snap, err := reg.Load("data", pathA)
	if err != nil {
		t.Fatal(err)
	}

	// One goroutine performs every load, so generations are handed out
	// sequentially and the gen → dataset mapping is known before the
	// queries start: base+1+i serves paths[i%2].
	const swaps = 40
	base := snap.Gen()
	paths := []string{pathB, pathA}
	genPath := map[uint64]string{base: pathA}
	allGens := []uint64{base}
	for i := 0; i < swaps; i++ {
		genPath[base+1+uint64(i)] = paths[i%2]
		allGens = append(allGens, base+1+uint64(i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 8)

	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := NewSession(reg)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := i % len(queries)
				res, err := sess.Query(context.Background(), "data", queries[qi])
				if err != nil {
					errCh <- err
					return
				}
				path := genPath[res.Gen]
				var want []int64
				switch path {
				case pathA:
					want = wantA[qi]
				case pathB:
					want = wantB[qi]
				default:
					t.Errorf("result from unknown generation %d", res.Gen)
					errCh <- nil
					return
				}
				if !sameIDs(res.IDs, want) {
					t.Errorf("gen %d (%s) query %d: got %v, want %v — stale page served across hot-swap",
						res.Gen, path, qi, res.IDs, want)
					errCh <- nil
					return
				}
			}
		}()
	}

	for i := 0; i < swaps; i++ {
		snap, err := reg.Load("data", paths[i%2])
		if err != nil {
			t.Fatal(err)
		}
		if snap.Gen() != base+1+uint64(i) {
			t.Fatalf("generation %d handed out for swap %d, want %d", snap.Gen(), i, base+1+uint64(i))
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
		return // an Errorf above already failed the test
	default:
	}

	// Every generation but the live one has fully drained; its cache
	// entries must be gone the moment the last lease released.
	live := allGens[len(allGens)-1]
	for _, gen := range allGens {
		if gen == live {
			continue
		}
		if n := reg.Cache().EntriesForGen(gen); n != 0 {
			t.Fatalf("retired generation %d still holds %d cache entries", gen, n)
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Cache().EntriesForGen(live); n != 0 {
		t.Fatalf("closed registry's live generation %d still holds %d cache entries", live, n)
	}
}

// TestPublishOpenerParticipatesInCache pins the ingestion pipeline's
// serving contract: a snapshot installed through PublishOpener — the
// callback opening its container through the registry-provided options —
// shares its decoded nodes through the shared cache exactly like a
// Load-ed one, and dropping it retires its generation's entries.
func TestPublishOpenerParticipatesInCache(t *testing.T) {
	path := saveContainer(t, buildIndexSeed(t, 11))
	queries := testQueries(t, 20)
	want := expectedAnswers(t, path, queries)

	reg := NewRegistryConfig(RegistryConfig{CacheBytes: 16 << 20})
	defer reg.Close()
	snap, err := reg.PublishOpener("live", func(opts stx.OpenOptions) (stx.Index, error) {
		return stx.OpenIndexOptions(path, opts)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Repeat sessions: the first warms the shared cache, later ones are
	// served by it — same behaviour the Load path proves above.
	var first SnapshotInfo
	for s := 0; s < 3; s++ {
		sess := NewSession(reg)
		for i, q := range queries {
			res, err := sess.Query(context.Background(), "live", q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(res.IDs, want[i]) {
				t.Fatalf("session %d query %d: ids %v, want %v", s, i, res.IDs, want[i])
			}
		}
		if s == 0 {
			first = reg.List()[0]
		}
	}

	info := reg.List()[0]
	if info.SharedHits == 0 {
		t.Fatalf("PublishOpener snapshot never hit the shared cache: %+v", info)
	}
	if first.StoreReads == 0 || info.StoreReads != first.StoreReads || info.Decodes != first.Decodes {
		t.Fatalf("warm generation still read or decoded: store reads %d -> %d, decodes %d -> %d",
			first.StoreReads, info.StoreReads, first.Decodes, info.Decodes)
	}
	if st := reg.Cache().Stats(); st.Entries == 0 {
		t.Fatalf("cache reports no residency: %+v", st)
	}

	gen := snap.Gen()
	if err := reg.Drop("live"); err != nil {
		t.Fatal(err)
	}
	if n := reg.Cache().EntriesForGen(gen); n != 0 {
		t.Fatalf("dropped PublishOpener generation %d still holds %d cache entries", gen, n)
	}
}

// TestPublishOpenerErrorRetires pins the failure path: when the callback
// errors after partially reading through the provided options, nothing is
// installed and any cache entries published under the aborted generation
// are dropped.
func TestPublishOpenerErrorRetires(t *testing.T) {
	path := saveContainer(t, buildIndexSeed(t, 11))
	queries := testQueries(t, 4)

	reg := NewRegistryConfig(RegistryConfig{CacheBytes: 16 << 20})
	defer reg.Close()
	errBoom := fmt.Errorf("boom")
	_, err := reg.PublishOpener("live", func(opts stx.OpenOptions) (stx.Index, error) {
		ix, err := stx.OpenIndexOptions(path, opts)
		if err != nil {
			return nil, err
		}
		// Read some pages through the wrapped store, then fail the open.
		for _, q := range queries {
			if _, err := stx.RunQuery(ix, q); err != nil {
				stx.CloseIndex(ix)
				return nil, err
			}
		}
		stx.CloseIndex(ix)
		return nil, errBoom
	})
	if err == nil || !errors.Is(err, errBoom) {
		t.Fatalf("PublishOpener error = %v, want %v", err, errBoom)
	}
	if _, err := reg.Acquire("live"); err == nil {
		t.Fatal("failed PublishOpener still installed a snapshot")
	}
	if st := reg.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("aborted publish left cache entries behind: %+v", st)
	}
}

// TestPublishServesUncached pins that Publish-ed (in-memory) snapshots
// bypass the shared cache but still answer correctly with zeroed split
// counters.
func TestPublishServesUncached(t *testing.T) {
	reg := NewRegistryConfig(RegistryConfig{CacheBytes: 8 << 20})
	if _, err := reg.Publish("mem", buildIndexSeed(t, 11)); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	sess := NewSession(reg)
	for _, q := range testQueries(t, 10) {
		if _, err := sess.Query(context.Background(), "mem", q); err != nil {
			t.Fatal(err)
		}
	}
	info := reg.List()[0]
	if info.SharedHits != 0 || info.StoreReads != 0 {
		t.Fatalf("published snapshot touched the shared cache: %+v", info)
	}
	if st := reg.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("published snapshot populated the cache: %+v", st)
	}
}

// TestHotSwapUnderTinyCacheBudget is the hostile budget: a registry whose
// cache holds fewer nodes than one query visits evicts all the time while
// concurrent sessions query across hot-swaps. Every answer must equal an
// uncached registry's for the generation that served it, and at rest the
// cache is within its budget with no retired generation left in it.
func TestHotSwapUnderTinyCacheBudget(t *testing.T) {
	paths := []string{saveContainer(t, buildIndexSeed(t, 11)), saveContainer(t, buildIndexSeed(t, 77))}
	queries := testQueries(t, 12)
	plain := NewRegistryConfig(RegistryConfig{})
	defer plain.Close()
	want := make([][][]int64, len(paths))
	for p, path := range paths {
		if _, err := plain.Load("data", path); err != nil {
			t.Fatal(err)
		}
		sess := NewSession(plain)
		for _, q := range queries {
			res, err := sess.Query(context.Background(), "data", q)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = append(want[p], res.IDs)
		}
	}

	reg := NewRegistryConfig(RegistryConfig{CacheBytes: 8 << 10})
	snap, err := reg.Load("data", paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Generation base+i serves paths[i%2]: this goroutine does every
	// load, swapping until the readers are done and at least ten times.
	base := snap.Gen()
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := NewSession(reg)
			for i := 0; i < 4*len(queries); i++ {
				qi := i % len(queries)
				res, err := sess.Query(context.Background(), "data", queries[qi])
				if err != nil {
					errCh <- err
					return
				}
				if w := want[(res.Gen-base)%2][qi]; !sameIDs(res.IDs, w) {
					errCh <- fmt.Errorf("gen %d query %d: got %v, want %v", res.Gen, qi, res.IDs, w)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	live := base
	for swapping := true; swapping; {
		select {
		case <-done:
			swapping = live-base < 10
		default:
		}
		live++
		if _, err := reg.Load("data", paths[(live-base)%2]); err != nil {
			t.Fatal(err)
		}
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := reg.Cache().Stats()
	if st.Bytes > st.Budget || st.Evictions == 0 {
		t.Fatalf("cache at rest: %+v, want bytes within the budget and evictions", st)
	}
	for gen := base; gen < live; gen++ {
		if n := reg.Cache().EntriesForGen(gen); n != 0 {
			t.Fatalf("retired generation %d still holds %d cache entries", gen, n)
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}
