package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	stx "stindex"

	"stindex/internal/sharding"
)

// serveSpec is what distinguishes serve-hot from serve-cold: how the
// snapshot is built, how stserve is started and what is asked of it.
type serveSpec struct {
	workload string
	objects  int
	queries  int
	args     []string // stserve flags in front of -load
	// build writes the snapshot under dir and returns the path to -load.
	build   func(records []stx.Record, dir string) (string, error)
	queryFn func(n int, seed int64) []benchQuery
}

func hotSpec(sc scale) serveSpec {
	return serveSpec{
		workload: wServeHot, objects: sc.HotObjects, queries: sc.HotQueries,
		args:    []string{"-backend", "mmap", "-cache-mb", "64"},
		build:   buildFlatPPR,
		queryFn: hotQueries,
	}
}

func coldSpec(sc scale) serveSpec {
	return serveSpec{
		workload: wServeCold, objects: sc.ColdObjects, queries: sc.ColdQueries,
		args: []string{"-backend", "disk", "-cache-mb", "0"},
		build: func(records []stx.Record, dir string) (string, error) {
			return buildShardedRStar(records, dir, sc.ColdShards)
		},
		queryFn: coldQueries,
	}
}

// buildFlatPPR is serve-hot's snapshot: one PPR container, a few MiB, so
// it fits the shared cache and its decoded-node tier whole.
func buildFlatPPR(records []stx.Record, dir string) (string, error) {
	idx, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "hot.sti")
	return path, stx.SaveIndexOptions(path, idx, stx.SaveOptions{Codec: stx.CodecCompressed})
}

// buildShardedRStar is serve-cold's snapshot: a temporal sharding of
// packed R*-trees with the default ten buffer pages per shard. It calls
// the two functions `stsplit -shards` calls (sharding.Partition and
// sharding.Build) rather than the binary, whose only input format is
// per-instant JSON — some 150 MB for this dataset, and parsing it would
// be most of the set-up.
func buildShardedRStar(records []stx.Record, dir string, shards int) (string, error) {
	plan, err := sharding.Partition(records, sharding.PlanConfig{Shards: shards, Partitioner: "temporal"})
	if err != nil {
		return "", err
	}
	manifest := filepath.Join(dir, "cold.stm")
	_, err = sharding.Build(manifest, plan, sharding.BuildConfig{Kind: "rstar-packed", Codec: stx.CodecCompressed})
	return manifest, err
}

func dirBytes(dir string) (int64, error) {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// served is one finished set-up: a warmed, verified server and the query
// list it was verified on.
type served struct {
	srv       *server
	conns     []*conn
	qs        []benchQuery
	records   int
	diskBytes int64
	setupSecs float64
	buildSecs float64 // split → build → save
}

func (s *served) close() {
	for _, c := range s.conns {
		c.close()
	}
	s.srv.kill() // a no-op once stop has reaped it
}

// setupServe runs one full set-up: generate → split → build → save →
// spawn → /healthz → one untimed pass over the query list, each answer
// decoded and compared with the oracle's. setupSecs covers all of it but
// the oracle's own brute-force scan, which is the benchmark's cost and
// not the system's. expected carries the reference answers from one
// repetition of a run to the next (same seed, same answers).
func setupServe(rc *runCtx, spec serveSpec, dir string, expected *[]answer, res *result) (*served, error) {
	t0 := time.Now()
	objs, err := generateObjects(spec.objects, rc.seed)
	if err != nil {
		return nil, err
	}
	b0 := time.Now()
	records, _, err := stx.SplitDataset(objs, splitConfig(len(objs)))
	if err != nil {
		return nil, err
	}
	load, err := spec.build(records, dir)
	if err != nil {
		return nil, err
	}
	s := &served{records: len(records), buildSecs: time.Since(b0).Seconds()}
	if s.diskBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	args := append(append([]string{}, spec.args...), "-load", "default="+load)
	if s.srv, err = startServer(rc.serverBin, filepath.Join(dir, "stserve.log"), rc.deadline, args...); err != nil {
		return nil, err
	}
	s.qs = spec.queryFn(spec.queries, rc.seed)
	for c := 0; c < runtime.NumCPU(); c++ {
		cn, err := dial(s.srv.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, cn)
	}
	elapsed := time.Since(t0)

	if *expected == nil {
		fillExpected(records, s.qs)
		for _, q := range s.qs {
			*expected = append(*expected, q.expect)
		}
		rc.corrupt(&(*expected)[0])
		res.Inputs["dataset"] = digestOf(recordsBytes(records))
		res.Inputs["queries"] = digestOf(queriesBytes(s.qs))
	}
	for i := range s.qs {
		s.qs[i].expect = (*expected)[i]
	}

	t1 := time.Now()
	warm := replayQueries(s.conns, s.qs, make([]int64, len(s.qs)), true, nil)
	s.setupSecs = (elapsed + time.Since(t1)).Seconds()
	res.count(len(s.qs), warm.failed, warm.firstErr)
	return s, nil
}

// serveSeries collects what the repetitions of a serve run measure: one
// value per round for the timings, one per repetition for the rest.
type serveSeries struct {
	qps, p50, cpu, ioq      []float64
	setups, buildRates, rss []float64
	bytesPerRecord          float64
	records                 int
	storeReads              int64
}

// serveRep is one repetition: a full set-up, the timed rounds against
// the server it left running, the /metrics invariants, and a clean stop —
// SIGTERM, drain, exit 0, the way an operator would.
func serveRep(rc *runCtx, spec serveSpec, expected *[]answer, res *result, acc *serveSeries) error {
	dir, err := rc.dataDir(spec.workload)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := setupServe(rc, spec, dir, expected, res)
	if err != nil {
		return err
	}
	defer s.close()
	watchdog := time.AfterFunc(time.Until(rc.deadline), s.srv.kill)
	defer watchdog.Stop()

	pid := s.srv.cmd.Process.Pid
	m0, err := s.srv.metrics()
	if err != nil {
		return err
	}
	latency := make([]int64, len(s.qs))
	for r := 0; r < rc.rounds; r++ {
		cpu0, err := cpuSeconds(pid)
		if err != nil {
			return err
		}
		var round queryRound
		withGCOff(func() { round = replayQueries(s.conns, s.qs, latency, false, nil) })
		cpu1, err := cpuSeconds(pid)
		if err != nil {
			return err
		}
		res.count(len(s.qs), round.failed, round.firstErr)
		acc.qps = append(acc.qps, float64(len(s.qs))/round.wall.Seconds())
		acc.p50 = append(acc.p50, medianUS(round.latency))
		acc.cpu = append(acc.cpu, cpu1-cpu0)
		acc.ioq = append(acc.ioq, float64(round.io)/float64(len(s.qs)))
	}
	m1, err := s.srv.metrics()
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return err
	}
	watchdog.Stop()
	if err := s.srv.stop(rc.deadline); err != nil {
		return err
	}

	// /metrics invariants: the server saw exactly the timed operations,
	// and none of them failed, was refused or timed out on its side.
	if want, got := int64(rc.rounds*len(s.qs)), m1.Completed-m0.Completed; got != want {
		res.fail("/metrics: completed grew by %d over the timed phase, want %d", got, want)
	}
	if m1.Failed != 0 || m1.Rejected != 0 || m1.TimedOut != 0 {
		res.fail("/metrics: failed=%d rejected=%d timed_out=%d, want all 0", m1.Failed, m1.Rejected, m1.TimedOut)
	}
	if len(m0.Snapshots) != 1 || len(m1.Snapshots) != 1 {
		return fmt.Errorf("/metrics lists %d snapshots, want 1", len(m1.Snapshots))
	}
	acc.storeReads += m1.Snapshots[0].StoreReads - m0.Snapshots[0].StoreReads
	acc.setups = append(acc.setups, s.setupSecs)
	acc.buildRates = append(acc.buildRates, float64(s.records)/s.buildSecs)
	acc.rss = append(acc.rss, rss)
	acc.bytesPerRecord = float64(s.diskBytes) / float64(s.records)
	acc.records = s.records
	return nil
}

// runServe is the shared body of serve-hot and serve-cold.
func runServe(rc *runCtx, spec serveSpec) (*result, error) {
	res := rc.newResult(spec.workload)
	var expected []answer
	var acc serveSeries
	for rep := 0; rep < rc.scale.Reps; rep++ {
		if err := serveRep(rc, spec, &expected, res, &acc); err != nil {
			return nil, err
		}
	}
	res.setSeries(mSetupS, acc.setups)
	res.setSeries(mQPS, acc.qps)
	res.setSeries(mQueryP50US, acc.p50)
	res.setSeries(mRecordsPerS, acc.buildRates)
	res.setSeries(mCPUS, acc.cpu)
	res.setSeries(mRSSMB, acc.rss)
	res.setSeries(mIOPerQuery, acc.ioq)
	res.Metrics[mBytesPerRecord] = acc.bytesPerRecord
	res.Counts["objects"] = spec.objects
	res.Counts["records"] = acc.records
	res.Counts["queries_per_round"] = spec.queries
	res.Counts["clients"] = runtime.NumCPU()
	res.Extra["store_reads_timed"] = float64(acc.storeReads)
	return res, nil
}

func runServeHot(rc *runCtx) (*result, error)  { return runServe(rc, hotSpec(rc.scale)) }
func runServeCold(rc *runCtx) (*result, error) { return runServe(rc, coldSpec(rc.scale)) }
