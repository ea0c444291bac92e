package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	stx "stindex"
)

// offlineBuild is what the build half of a round produced: split →
// BuildPPR → save (compressed).
type offlineBuild struct {
	records   []stx.Record
	pages     int
	secs      float64
	fileBytes int64
}

// offlineQueried is what the query half of a round measured.
type offlineQueried struct {
	latency  []int64 // ns per query
	secs     float64 // their sum
	io       int64
	failed   int
	firstErr error
}

// offlineQueries is the paper's snapshot-mixed set — as many draws of it,
// each from its own seed, as it takes to make n queries.
func offlineQueries(n int, seed int64) ([]benchQuery, error) {
	out := make([]benchQuery, 0, n)
	for draw := int64(0); len(out) < n; draw++ {
		qs, err := stx.GenerateQueries(stx.QuerySnapshotMixed, horizon, seed+seedQueries+draw)
		if err != nil {
			return nil, err
		}
		if len(qs) == 0 {
			return nil, fmt.Errorf("snapshot-mixed generated no queries")
		}
		for _, q := range qs[:min(len(qs), n-len(out))] {
			out = append(out, newBenchQuery("default", q))
		}
	}
	return out, nil
}

// buildOffline runs the write side of the pipeline once.
func buildOffline(objs []*stx.Object, path string) (offlineBuild, error) {
	var b offlineBuild
	t0 := time.Now()
	records, _, err := stx.SplitDataset(objs, splitConfig(len(objs)))
	if err != nil {
		return b, err
	}
	built, err := stx.BuildPPR(records, stx.PPROptions{})
	if err != nil {
		return b, err
	}
	if err := stx.SaveIndexOptions(path, built, stx.SaveOptions{Codec: stx.CodecCompressed}); err != nil {
		return b, err
	}
	b.secs = time.Since(t0).Seconds()
	b.records, b.pages = records, built.Pages()
	st, err := os.Stat(path)
	if err != nil {
		return b, err
	}
	b.fileBytes = st.Size()
	return b, nil
}

// queryOffline opens the saved container lazily and answers the list one
// query at a time, each against a cold buffer. With verify set the
// answers are compared with the oracle's in full (the set-up pass);
// otherwise only their cardinalities are, which costs nothing.
func queryOffline(path string, qs []benchQuery, verify bool) (offlineQueried, error) {
	r := offlineQueried{latency: make([]int64, len(qs))}
	idx, err := stx.OpenIndex(path)
	if err != nil {
		return r, err
	}
	defer stx.CloseIndex(idx)
	// The build leaves a heap full of garbage; collect it here, between
	// the two timed phases, so no cycle starts in the middle of the
	// sub-millisecond queries.
	runtime.GC()
	for i := range qs {
		idx.ResetBuffer() // the paper's discipline: every query meets a cold 10-page buffer
		q0 := time.Now()
		ids, err := stx.RunQuery(idx, qs[i].q)
		r.latency[i] = int64(time.Since(q0))
		r.secs += float64(r.latency[i]) / 1e9
		if err != nil {
			return r, err
		}
		r.io += idx.IOStats().IO()
		ok := len(ids) == len(qs[i].expect.ids)
		if verify {
			ok = qs[i].expect.matches(stx.KindWindow, answer{ids: ids})
		}
		if !ok {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("%s: answer of %d ids differs from the oracle's %d", qs[i].path, len(ids), len(qs[i].expect.ids))
			}
		}
	}
	return r, nil
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runBuildOffline measures the offline pipeline in-process: the runner is
// the process under test, so its collector stays on (it is part of the
// program's cost) and is only forced between rounds.
func runBuildOffline(rc *runCtx) (*result, error) {
	res := rc.newResult(wBuildOffline)
	dir, err := rc.dataDir(wBuildOffline)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "offline.sti")

	var expected []answer
	var setups, qps, p50, rps, ioq, cpu []float64
	var last offlineBuild
	var objects int
	for rep := 0; rep < rc.scale.Reps; rep++ {
		// Set-up: generate → one untimed pass of the pipeline, every answer
		// compared with the oracle's. The oracle's own scan is the
		// benchmark's cost, not the system's, and stays off the clock.
		t0 := time.Now()
		objs, err := generateObjects(rc.scale.OfflineObjects, rc.seed)
		if err != nil {
			return nil, err
		}
		qs, err := offlineQueries(rc.scale.OfflineQueries, rc.seed)
		if err != nil {
			return nil, err
		}
		built, err := buildOffline(objs, path)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		if expected == nil {
			fillExpected(built.records, qs)
			for _, q := range qs {
				expected = append(expected, q.expect)
			}
			rc.corrupt(&expected[0])
			res.Inputs["dataset"] = digestOf(recordsBytes(built.records))
			res.Inputs["queries"] = digestOf(queriesBytes(qs))
		}
		for i := range qs {
			qs[i].expect = expected[i]
		}
		t1 := time.Now()
		warm, err := queryOffline(path, qs, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (elapsed + time.Since(t1)).Seconds())
		res.count(len(qs), warm.failed, warm.firstErr)

		runtime.GC()
		for r := 0; r < rc.rounds; r++ {
			cpu0 := selfCPUSeconds()
			if last, err = buildOffline(objs, path); err != nil {
				return nil, err
			}
			round, err := queryOffline(path, qs, false)
			if err != nil {
				return nil, err
			}
			cpu = append(cpu, selfCPUSeconds()-cpu0)
			res.count(len(qs), round.failed, round.firstErr)
			qps = append(qps, float64(len(qs))/round.secs)
			p50 = append(p50, medianUS(round.latency))
			rps = append(rps, float64(len(last.records))/last.secs)
			ioq = append(ioq, float64(round.io)/float64(len(qs)))
			runtime.GC()
		}
		objects = len(objs)
	}
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}

	res.setSeries(mSetupS, setups)
	res.setSeries(mQPS, qps)
	res.setSeries(mQueryP50US, p50)
	res.setSeries(mRecordsPerS, rps)
	res.setSeries(mCPUS, cpu)
	res.setSeries(mIOPerQuery, ioq)
	res.Metrics[mRSSMB] = rss
	res.Metrics[mBytesPerRecord] = float64(last.fileBytes) / float64(len(last.records))
	res.Counts["objects"] = objects
	res.Counts["records"] = len(last.records)
	res.Counts["queries_per_round"] = rc.scale.OfflineQueries
	res.Counts["pages"] = last.pages
	return res, nil
}
