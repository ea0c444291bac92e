package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	stx "stindex"

	"stindex/internal/alloc"
	"stindex/internal/datagen"
	"stindex/internal/ingest"
	"stindex/internal/pagefile"
	"stindex/internal/service"
	"stindex/internal/sharding"
	"stindex/internal/split"
)

// The traced run replays one round of a workload in-process — serially:
// one client, one service worker, shard fan-out 1 — first without and
// then with the wrappers of trace_seams.go, and derives the per-layer
// metrics from the spans and from the counters the layers export. End-
// to-end metrics are never taken from it.

// tracedSplit runs the split pipeline the way stx.SplitDataset does
// (merge splitter, LAGreedy depth 2, all cores), but through the alloc
// layer's own functions so each stage gets a span. The determinism test
// checks its records equal SplitDataset's.
func tracedSplit(tr *tracer, n int, seed int64, res *result) ([]stx.Record, error) {
	objs, err := datagen.Random(datagen.RandomConfig{N: n, Horizon: horizon, Seed: seed})
	if err != nil {
		return nil, err
	}
	t0 := tr.now()
	curves := alloc.BuildCurvesParallel(objs, split.MergeCurve, 0)
	res.Metrics["alloc.curves_s"] = tr.since("alloc.curves", t0)
	t0 = tr.now()
	assignment := alloc.LAGreedyDepth(curves, n*splitBudgetPercent/100, 2)
	res.Metrics["alloc.assign_s"] = tr.since("alloc.assign", t0)
	t0 = tr.now()
	results := alloc.MaterializeParallel(objs, assignment, split.MergeSplit, 0)
	res.Metrics["alloc.materialize_s"] = tr.since("alloc.materialize", t0)

	var records []stx.Record
	unsplit := 0.0
	for _, r := range results {
		unsplit += r.Object.MBR().Volume()
		for _, b := range r.Boxes {
			records = append(records, stx.Record{
				Rect:     stx.Rect{MinX: b.Rect.MinX, MinY: b.Rect.MinY, MaxX: b.Rect.MaxX, MaxY: b.Rect.MaxY},
				Interval: stx.Interval{Start: b.Start, End: b.End},
				ObjectID: r.Object.ID,
			})
		}
	}
	res.Metrics["split.volume_gain"] = 1 - stx.TotalVolume(records)/unsplit
	res.Metrics["split.records_out"] = float64(len(records))
	return records, nil
}

// tracedSave saves idx with the compressed codec inside a span and
// derives the codec metrics from the container's own directory.
func tracedSave(tr *tracer, path string, idx stx.Index, res *result) error {
	t0 := tr.now()
	if err := stx.SaveIndexOptions(path, idx, stx.SaveOptions{Codec: stx.CodecCompressed}); err != nil {
		return err
	}
	secs := tr.since("stindex.save", t0)
	info, err := stx.InspectContainer(path)
	if err != nil {
		return err
	}
	res.Metrics["stindex.save_s"] += secs
	res.Extra["logical_bytes"] += float64(info.LogicalBytes)
	res.Extra["stored_bytes"] += float64(info.StoredBytes)
	res.Metrics["pagefile.encode_mb_per_s"] = res.Extra["logical_bytes"] / (1 << 20) / res.Metrics["stindex.save_s"]
	res.Metrics["pagefile.compress_ratio"] = res.Extra["logical_bytes"] / res.Extra["stored_bytes"]
	return nil
}

// newLayerResult starts a traced result with every per-layer metric at 0
// (the value reported where a metric does not apply).
func (rc *runCtx) newLayerResult(workload string) *result {
	res := rc.newResult(workload)
	res.Reps, res.Rounds = 1, 1
	for name := range perLayerUnits {
		res.Metrics[name] = 0
	}
	return res
}

// finishTrace writes the span file and fills the metrics every traced
// workload derives the same way.
func (rc *runCtx) finishTrace(res *result, tr *tracer, untraced, traced time.Duration) (map[string]*layerStats, error) {
	spans := tr.finish()
	res.Metrics["trace_overhead_frac"] = (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	res.Extra["root_self_gap"] = rootSelfGap(spans)
	res.Counts["spans"] = len(spans)
	stats := aggregate(spans)
	if ls := stats["pagefile.store_read"]; ls != nil {
		res.Metrics["pagefile.store_read_us"] = float64(ls.total) / 1e3 / float64(ls.count)
	}
	path := filepath.Join(rc.root, "bench", "out", "trace-"+res.Workload+".json")
	return stats, writeJSON(path, newTraceFile(res.Workload, rc.seed, spans), false)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func traceBuildOffline(rc *runCtx) (*result, error) {
	res := rc.newLayerResult(wBuildOffline)
	dir, err := rc.dataDir(wBuildOffline)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	tr.enable(true)

	records, err := tracedSplit(tr, rc.scale.OfflineObjects, rc.seed, res)
	if err != nil {
		return nil, err
	}
	t0 := tr.now()
	built, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		return nil, err
	}
	res.Metrics["pprtree.build_s"] = tr.since("pprtree.build", t0)
	res.Metrics["pprtree.pages"] = float64(built.Pages())
	path := filepath.Join(dir, "offline.sti")
	if err := tracedSave(tr, path, built, res); err != nil {
		return nil, err
	}
	qs, err := offlineQueries(rc.scale.OfflineQueries, rc.seed)
	if err != nil {
		return nil, err
	}
	fillExpected(records, qs)
	rc.corrupt(&qs[0].expect)

	// replay answers the list with a cold buffer per query, as the timed
	// workload does, and checks every answer against the oracle.
	replay := func(idx stx.Index, hits, reads *int64) time.Duration {
		var total time.Duration
		failed := 0
		var firstErr error
		for i := range qs {
			idx.ResetBuffer()
			tr.begin()
			q0 := time.Now()
			ids, err := stx.RunQuery(idx, qs[i].q)
			total += time.Since(q0)
			st := idx.IOStats()
			*hits, *reads = *hits+st.Hits, *reads+st.Reads
			if err == nil && !qs[i].expect.matches(stx.KindWindow, answer{ids: ids}) {
				err = fmt.Errorf("%s: answer differs from the oracle's", qs[i].path)
			}
			if err != nil {
				failed++
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		res.count(len(qs), failed, firstErr)
		return total
	}

	tr.enable(false)
	plain, err := stx.OpenIndex(path)
	if err != nil {
		return nil, err
	}
	var hits, reads int64
	untraced := replay(plain, &hits, &reads)
	stx.CloseIndex(plain)

	tr.enable(true)
	var storeReads atomic.Int64
	t0 = tr.now()
	opened, err := stx.OpenIndexOptions(path, stx.OpenOptions{Wrap: func(s pagefile.Store) pagefile.Store {
		return &timedStore{Store: s, tr: tr, reads: &storeReads}
	}})
	if err != nil {
		return nil, err
	}
	res.Metrics["stindex.open_us"] = tr.since("stindex.open", t0) * 1e6
	defer stx.CloseIndex(opened)
	hits, reads = 0, 0
	traced := replay(&timedIndex{Index: opened, tr: tr, name: "pprtree.search"}, &hits, &reads)

	stats, err := rc.finishTrace(res, tr, untraced, traced)
	if err != nil {
		return nil, err
	}
	n := len(qs)
	res.Metrics["pprtree.search_self_us"] = selfUS(stats, "pprtree.search", n)
	res.Metrics["pagefile.pool_hit_rate"] = ratio(hits, hits+reads)
	res.Metrics["pagefile.store_reads_per_query"] = float64(storeReads.Load()) / float64(n)
	res.Metrics["pagefile.decodes_per_query"] = float64(storeReads.Load()) / float64(n)
	res.Counts["queries"] = n
	return res, nil
}

// serveStack is one in-process serving stack: service engine, loopback
// HTTP server and one client connection.
type serveStack struct {
	svc        *service.Service
	http       *inproc
	conn       *conn
	storeReads atomic.Int64
	openUS     float64                 // the lazy open of the container(s)
	cstats     *pagefile.CacheCounters // serve-hot's shared-cache counters
	sharded    *service.Sharded        // serve-cold's router
}

func (s *serveStack) close() {
	if s.conn != nil {
		s.conn.close()
	}
	if s.http != nil {
		s.http.close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
}

// openServeStack opens the snapshot at load the way stserve would for
// this workload — mmap under a 64 MiB shared cache for serve-hot, lazy
// positioned reads and no cache for serve-cold's manifest — and, with a
// tracer, puts the timing wrappers at the store, index and handler seams.
func openServeStack(spec serveSpec, load string, tr *tracer) (*serveStack, error) {
	s := &serveStack{}
	wrapStore := func(st pagefile.Store) pagefile.Store {
		if tr == nil {
			return st
		}
		return &timedStore{Store: st, tr: tr, reads: &s.storeReads}
	}
	var idx stx.Index
	var err error
	name := "pprtree.search"
	t0 := tr.now()
	if spec.workload == wServeHot {
		cache := pagefile.NewSharedCache(64 << 20)
		s.cstats = &pagefile.CacheCounters{}
		ext := uint32(0)
		idx, err = stx.OpenIndexOptions(load, stx.OpenOptions{Backend: stx.BackendMmap, Wrap: func(st pagefile.Store) pagefile.Store {
			ext++
			return cache.WrapStore(1, ext, wrapStore(st), s.cstats)
		}})
	} else {
		name = "rstar.search"
		// The router fixes its fan-out to GOMAXPROCS when it opens; one
		// processor here makes it query its shards one after the other,
		// so a request's spans nest instead of overlapping.
		procs := runtime.GOMAXPROCS(1)
		s.sharded, err = service.OpenShardedPerShard(load, func(int) stx.OpenOptions {
			return stx.OpenOptions{Backend: stx.BackendDisk, Wrap: wrapStore}
		})
		runtime.GOMAXPROCS(procs)
		idx = s.sharded
	}
	if err != nil {
		return nil, err
	}
	s.openUS = tr.since("stindex.open", t0) * 1e6
	if tr != nil {
		idx = &timedIndex{Index: idx, tr: tr, name: name}
	}
	s.svc = service.New(service.Config{Workers: 1})
	if _, err := s.svc.Registry().Publish("default", idx); err != nil {
		s.close()
		return nil, err
	}
	handler := http.Handler(service.NewHandler(s.svc))
	if tr != nil {
		handler = timedHandler(tr, "service.handler", handler)
	}
	if s.http, err = serveInproc(handler); err != nil {
		s.close()
		return nil, err
	}
	if s.conn, err = dial(s.http.addr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func traceServe(rc *runCtx, spec serveSpec) (*result, error) {
	res := rc.newLayerResult(spec.workload)
	dir, err := rc.dataDir(spec.workload)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	tr.enable(true)

	records, err := tracedSplit(tr, spec.objects, rc.seed, res)
	if err != nil {
		return nil, err
	}
	snapDir := filepath.Join(dir, "snapshot")
	if err := os.Mkdir(snapDir, 0o755); err != nil {
		return nil, err
	}
	var load string
	if spec.workload == wServeHot {
		t0 := tr.now()
		built, err := stx.BuildPPR(records, stx.PPROptions{})
		if err != nil {
			return nil, err
		}
		res.Metrics["pprtree.build_s"] = tr.since("pprtree.build", t0)
		res.Metrics["pprtree.pages"] = float64(built.Pages())
		load = filepath.Join(snapDir, "hot.sti")
		if err := tracedSave(tr, load, built, res); err != nil {
			return nil, err
		}
	} else {
		// The served snapshot comes from sharding.Build, which offers no
		// seam per shard; the pack and save spans come from packing and
		// saving each shard of the same plan once more beside it.
		plan, err := sharding.Partition(records, sharding.PlanConfig{Shards: rc.scale.ColdShards, Partitioner: "temporal"})
		if err != nil {
			return nil, err
		}
		for i, sh := range plan.Shards {
			t0 := tr.now()
			packed, err := stx.BuildRStarPacked(sh.Records, stx.RStarOptions{})
			if err != nil {
				return nil, err
			}
			res.Metrics["rstar.pack_s"] += tr.since("rstar.pack", t0)
			if err := tracedSave(tr, filepath.Join(dir, fmt.Sprintf("probe-%d.sti", i)), packed, res); err != nil {
				return nil, err
			}
		}
		if load, err = spec.build(records, snapDir); err != nil {
			return nil, err
		}
	}
	qs := spec.queryFn(spec.queries, rc.seed)
	fillExpected(records, qs)
	rc.corrupt(&qs[0].expect)
	latency := make([]int64, len(qs))

	// Untraced replay: warm-up and verification pass, then the round.
	tr.enable(false)
	plain, err := openServeStack(spec, load, nil)
	if err != nil {
		return nil, err
	}
	warm := replayQueries([]*conn{plain.conn}, qs, latency, true, nil)
	res.count(len(qs), warm.failed, warm.firstErr)
	base := replayQueries([]*conn{plain.conn}, qs, latency, false, nil)
	res.count(len(qs), base.failed, base.firstErr)
	plain.close()

	// Traced replay: the same, with the wrappers in and recording on for
	// the round only.
	tr.enable(true)
	stack, err := openServeStack(spec, load, tr)
	if err != nil {
		return nil, err
	}
	defer stack.close()
	res.Metrics["stindex.open_us"] = stack.openUS
	tr.enable(false)
	warm = replayQueries([]*conn{stack.conn}, qs, latency, true, tr)
	res.count(len(qs), warm.failed, warm.firstErr)
	before := stack.svc.Metrics().Snapshots[0]
	var cache0 pagefile.CacheCounterValues
	if stack.cstats != nil {
		cache0 = stack.cstats.Load()
	}
	var shards0 []service.ShardStat
	if stack.sharded != nil {
		shards0 = stack.sharded.ShardStats()
	}
	reads0 := stack.storeReads.Load()
	tr.enable(true)
	round := replayQueries([]*conn{stack.conn}, qs, latency, false, tr)
	tr.enable(false)
	res.count(len(qs), round.failed, round.firstErr)
	after := stack.svc.Metrics().Snapshots[0]

	stats, err := rc.finishTrace(res, tr, base.wall, round.wall)
	if err != nil {
		return nil, err
	}
	n := len(qs)
	res.Counts["queries"] = n
	res.Metrics["service.transport_us"] = selfUS(stats, "client.query", n)
	res.Metrics["service.self_us_per_query"] = selfUS(stats, "service.handler", n)
	res.Metrics["service.resp_bytes_per_query"] = float64(round.bytes) / float64(n)
	res.Metrics["service.http_p99_us"] = quantileUS(round.latency, 0.99)
	res.Metrics["service.http_max_us"] = quantileUS(round.latency, 1)
	res.Metrics["pagefile.pool_hit_rate"] = ratio(after.Hits-before.Hits, after.Hits-before.Hits+after.Reads-before.Reads)
	storeReads := stack.storeReads.Load() - reads0
	res.Metrics["pagefile.store_reads_per_query"] = float64(storeReads) / float64(n)
	if stack.cstats != nil {
		c := stack.cstats.Load()
		res.Metrics["pprtree.search_self_us"] = selfUS(stats, "pprtree.search", n)
		res.Metrics["pagefile.shared_hit_rate"] = ratio(c.SharedHits-cache0.SharedHits, c.SharedHits-cache0.SharedHits+c.StoreReads-cache0.StoreReads)
		res.Metrics["pagefile.decodes_per_query"] = float64(c.Decodes-cache0.Decodes) / float64(n)
		return res, nil
	}

	res.Metrics["rstar.search_self_us"] = selfUS(stats, "rstar.search", n)
	res.Metrics["pagefile.decodes_per_query"] = float64(storeReads) / float64(n) // no cache: every store read decodes its page
	var dispatched, pruned int64
	for i, sh := range stack.sharded.ShardStats() {
		dispatched += sh.Queries - shards0[i].Queries
		pruned += sh.Pruned - shards0[i].Pruned
	}
	res.Metrics["sharding.dispatched_per_query"] = float64(dispatched) / float64(n)
	res.Metrics["sharding.pruned_frac"] = ratio(pruned, pruned+dispatched)
	res.Metrics["sharding.merge_self_us"], err = mergeSelfUS(stack.sharded, qs)
	return res, err
}

// mergeSelfUS is what the shard router adds on top of its shards: the
// time of each query through a view of the router minus the time of the
// same query run directly on a view of every shard the router dispatches
// it to (those whose manifest bounds the query intersects), averaged.
func mergeSelfUS(sharded *service.Sharded, qs []benchQuery) (float64, error) {
	router := sharded.QueryView()
	shards := sharded.ShardIndexes()
	direct := make([]stx.Index, len(shards))
	for i, sh := range shards {
		qv, ok := sh.(stx.QueryViewer)
		if !ok {
			return 0, fmt.Errorf("shard %d (%s) offers no query view", i, sh.Kind())
		}
		direct[i] = qv.QueryView()
	}
	infos := sharded.Manifest().Shards
	var through, onShards time.Duration
	for _, q := range qs {
		t0 := time.Now()
		if _, err := stx.RunQuery(router, q.q); err != nil {
			return 0, err
		}
		through += time.Since(t0)
		t0 = time.Now()
		for i, info := range infos {
			if !q.q.Rect.Intersects(info.Rect) || q.q.Interval.Start >= info.Interval.End || q.q.Interval.End <= info.Interval.Start {
				continue
			}
			if _, err := stx.RunQuery(direct[i], q.q); err != nil {
				return 0, err
			}
		}
		onShards += time.Since(t0)
	}
	return float64(through-onShards) / 1e3 / float64(len(qs)), nil
}

func traceServeHot(rc *runCtx) (*result, error)  { return traceServe(rc, hotSpec(rc.scale)) }
func traceServeCold(rc *runCtx) (*result, error) { return traceServe(rc, coldSpec(rc.scale)) }

// ingestStack is one in-process ingest-mixed stack.
type ingestStack struct {
	dir     string
	svc     *service.Service
	private *service.Registry
	in      *ingest.Ingester
	http    *inproc
	a, b    *conn
}

func (s *ingestStack) close() {
	for _, c := range []*conn{s.a, s.b} {
		if c != nil {
			c.close()
		}
	}
	if s.http != nil {
		s.http.close()
	}
	if s.in != nil {
		s.in.Close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.private != nil {
		s.private.Close()
	}
}

// openIngestStack assembles what `stserve -ingest live -freeze-every F
// -cache-mb 16` assembles. With a tracer the pipeline publishes into a
// private registry behind a liveProxy, journals through a timedFS and
// takes its batches through submitHandler.
func openIngestStack(plan *ingestPlan, journal string, tr *tracer) (*ingestStack, error) {
	s := &ingestStack{dir: journal, svc: service.New(service.Config{Workers: 1, CacheMB: 16})}
	cfg := ingest.Config{
		Dir: journal, Name: liveSnapshot, Registry: s.svc.Registry(),
		Lambda: ingestLambda, Codec: stx.CodecCompressed,
		FreezeEvery: plan.perRound * plan.batch,
	}
	if tr != nil {
		s.private = service.NewRegistryConfig(service.RegistryConfig{CacheBytes: 16 << 20})
		cfg.Registry, cfg.FS = s.private, timedFS{tr: tr}
	}
	var err error
	if s.in, err = ingest.Open(cfg); err != nil {
		s.close()
		return nil, err
	}
	mux := http.NewServeMux()
	stock := ingest.NewHandler(s.in)
	mux.Handle("/ingest/", stock)
	if tr == nil {
		mux.Handle("/ingest", stock)
		mux.Handle("/", service.NewHandler(s.svc))
	} else {
		if _, err := s.svc.Registry().Publish(liveSnapshot, &liveProxy{reg: s.private, tr: tr}); err != nil {
			s.close()
			return nil, err
		}
		mux.Handle("/ingest", timedHandler(tr, "ingest.handler", submitHandler(tr, s.in)))
		mux.Handle("/", timedHandler(tr, "service.handler", service.NewHandler(s.svc)))
	}
	if s.http, err = serveInproc(mux); err != nil {
		s.close()
		return nil, err
	}
	if s.a, err = dial(s.http.addr); err == nil {
		s.b, err = dial(s.http.addr)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func traceIngestMixed(rc *runCtx) (*result, error) {
	res := rc.newLayerResult(wIngestMixed)
	rounds := rc.scale.TraceIngestRound
	res.Rounds = rounds
	plan, err := planIngest(rc.scale, rounds-1, rc.seed) // planIngest adds the warm-up round
	if err != nil {
		return nil, err
	}
	if err := plan.fillBounds(); err != nil {
		return nil, err
	}
	rc.corrupt(&plan.queries[0][0].expect)
	perStep := len(plan.queries[0])
	run := func(tr *tracer) (*ingestStack, ingestRound, error) {
		dir, err := rc.dataDir(wIngestMixed)
		if err != nil {
			return nil, ingestRound{}, err
		}
		stack, err := openIngestStack(plan, dir, tr)
		if err != nil {
			os.RemoveAll(dir)
			return nil, ingestRound{}, err
		}
		var all ingestRound
		for r := 0; r < rounds; r++ {
			round := plan.runIngestRound(stack.a, stack.b, r*plan.perRound, (r+1)*plan.perRound, true, tr)
			res.count(plan.perRound*(1+perStep), round.failed, round.firstErr)
			failed, firstErr := plan.verify(r*plan.perRound, &round)
			res.count(0, failed, firstErr)
			all.wall += round.wall
			all.acks = append(all.acks, round.acks...)
			all.latency = append(all.latency, round.latency...)
			all.inFreeze = append(all.inFreeze, round.inFreeze...)
			all.freezeNS += round.freezeNS
			all.bytes += round.bytes
		}
		return stack, all, nil
	}

	plain, base, err := run(nil)
	if err != nil {
		return nil, err
	}
	plain.close()
	os.RemoveAll(plain.dir)

	tr := newTracer()
	tr.enable(true)
	stack, all, err := run(tr)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stack.dir)
	defer stack.close()
	tr.enable(false)
	final := plan.finalPass([]*conn{stack.a})
	res.count(len(final.latency), final.failed, final.firstErr)

	stats, err := rc.finishTrace(res, tr, base.wall, all.wall)
	if err != nil {
		return nil, err
	}
	st := stack.in.Stats()
	records := float64(rounds * plan.perRound * plan.batch)
	batches, queries := len(all.acks), len(all.latency)
	res.Counts["records"], res.Counts["batches"], res.Counts["queries"] = int(records), batches, queries
	res.Metrics["ingest.ack_p50_us"] = quantileUS(all.acks, 0.5)
	res.Metrics["ingest.ack_p99_us"] = quantileUS(all.acks, 0.99)
	res.Metrics["ingest.submit_self_us_per_batch"] = selfUS(stats, "ingest.submit", batches)
	res.Metrics["ingest.fsyncs_per_krecord"] = float64(st.Fsyncs) / (records / 1000)
	res.Metrics["ingest.wal_bytes_per_record"] = float64(st.WALBytes) / records
	if ls := stats["ingest.wal_sync"]; ls != nil {
		res.Metrics["ingest.fsync_p50_us"] = quantileUS(ls.durs, 0.5)
	}
	res.Metrics["ingest.freezes"] = float64(st.Freezes)
	res.Metrics["ingest.freeze_s"] = float64(all.freezeNS) / 1e9 / float64(rounds)
	res.Metrics["ingest.query_p50_in_freeze_us"] = quantileUS(all.inFreeze, 0.5)
	if ls := stats["ingest.live_only"]; ls != nil {
		res.Metrics["ingest.live_query_self_us"] = float64(ls.self) / 1e3 / float64(ls.count)
	}
	res.Metrics["service.transport_us"] = selfUS(stats, "client.query", queries)
	res.Metrics["service.self_us_per_query"] = selfUS(stats, "service.handler", queries)
	res.Metrics["service.resp_bytes_per_query"] = float64(all.bytes) / float64(queries)
	res.Metrics["service.http_p99_us"] = quantileUS(all.latency, 0.99)
	res.Metrics["service.http_max_us"] = quantileUS(all.latency, 1)
	if st.Freezes != int64(rounds) || st.FreezeErrors != 0 || st.Latched != "" || st.Accepted != int64(records) || st.WALRecords != int64(records) {
		res.fail("ingest stats: freezes=%d (want %d) freeze_errors=%d latched=%q accepted=%d wal_records_written=%d (want %d)",
			st.Freezes, rounds, st.FreezeErrors, st.Latched, st.Accepted, st.WALRecords, int64(records))
	}
	return res, nil
}
