package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	stx "stindex"

	"stindex/internal/check"
)

// horizon is the evolution length of every generated dataset (instants).
const horizon = 1000

// Seeds of the derived generators: -seed is the only input, everything
// else is an offset from it so no two generators share a stream.
const (
	seedQueries = 7919
	seedFeed    = 104729
)

func generateObjects(n int, seed int64) ([]*stx.Object, error) {
	return stx.GenerateRandom(stx.RandomDatasetConfig{N: n, Horizon: horizon, Seed: seed})
}

func splitConfig(objects int) stx.SplitConfig {
	return stx.SplitConfig{
		Budget:       objects * splitBudgetPercent / 100,
		Splitter:     stx.SplitterMerge,
		Distribution: stx.DistributionLAGreedy,
	}
}

// benchQuery is one operation of a query list: the query, its prebuilt
// request bytes and the oracle's answer.
type benchQuery struct {
	q      stx.Query
	path   string // request target, e.g. /query?rect=...&t=5
	req    []byte // full HTTP/1.1 request, built before the clock starts
	expect answer
}

// answer is what a query returns, in the shape of its kind.
type answer struct {
	ids  []int64
	nb   []stx.Neighbor
	traj []stx.TrajectoryHit
	// atLeast, when bounded is set, turns the reference into a pair of
	// bounds: a window answer is right if it is in ascending order, holds
	// every id of atLeast and no id outside ids (see ingestPlan.fillBounds
	// for why the live stream index is checked this way).
	atLeast []int64
	bounded bool
}

// count is the "count" field of the server's response for this answer.
func (a answer) count(kind stx.QueryKind) int {
	switch kind {
	case stx.KindKNN:
		return len(a.nb)
	case stx.KindTrajectory:
		return len(a.traj)
	}
	return len(a.ids)
}

// matches reports whether got is a right answer under reference a.
func (a answer) matches(kind stx.QueryKind, got answer) bool {
	switch kind {
	case stx.KindKNN:
		return check.SameNeighbors(a.nb, got.nb)
	case stx.KindTrajectory:
		return check.SameTrajectories(a.traj, got.traj)
	}
	if a.bounded {
		return ascending(got.ids) && subset(a.atLeast, got.ids) && subset(got.ids, a.ids)
	}
	return check.SameIDs(a.ids, got.ids)
}

// ascending reports whether ids are in strictly ascending order, as the
// service returns them: sorted, and no object twice.
func ascending(ids []int64) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return false
		}
	}
	return true
}

// subset reports whether every id of a is in b.
func subset(a, b []int64) bool {
	in := make(map[int64]bool, len(b))
	for _, id := range b {
		in[id] = true
	}
	for _, id := range a {
		if !in[id] {
			return false
		}
	}
	return true
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

// queryPath renders q as a GET /query target. Floats use the shortest
// exact decimal form, so the server parses back the very same bits.
func queryPath(snapshot string, q stx.Query) string {
	p := "/query?snapshot=" + snapshot
	if q.Kind == stx.KindKNN {
		return p + "&kind=knn&x=" + fmtFloat(q.Rect.MinX) + "&y=" + fmtFloat(q.Rect.MinY) +
			"&t=" + strconv.FormatInt(q.Interval.Start, 10) + "&k=" + strconv.Itoa(q.K)
	}
	if q.Kind == stx.KindTrajectory {
		p += "&kind=trajectory"
	}
	p += "&rect=" + fmtFloat(q.Rect.MinX) + "," + fmtFloat(q.Rect.MinY) + "," +
		fmtFloat(q.Rect.MaxX) + "," + fmtFloat(q.Rect.MaxY)
	if q.IsSnapshot() {
		return p + "&t=" + strconv.FormatInt(q.Interval.Start, 10)
	}
	return p + "&from=" + strconv.FormatInt(q.Interval.Start, 10) + "&to=" + strconv.FormatInt(q.Interval.End, 10)
}

func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: stbench\r\n\r\n")
}

func postRequest(path string, body []byte) []byte {
	head := "POST " + path + " HTTP/1.1\r\nHost: stbench\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n"
	return append([]byte(head), body...)
}

func newBenchQuery(snapshot string, q stx.Query) benchQuery {
	path := queryPath(snapshot, q)
	return benchQuery{q: q, path: path, req: getRequest(path)}
}

// window draws a rect with both extents uniform in [lo, hi], wholly
// inside the unit square.
func window(rng *rand.Rand, lo, hi float64) stx.Rect {
	w := lo + rng.Float64()*(hi-lo)
	h := lo + rng.Float64()*(hi-lo)
	x := rng.Float64() * (1 - w)
	y := rng.Float64() * (1 - h)
	return stx.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

func interval(rng *rand.Rand, minDur, maxDur int64) stx.Interval {
	d := minDur + rng.Int63n(maxDur-minDur+1)
	s := rng.Int63n(horizon - d + 1)
	return stx.Interval{Start: s, End: s + d}
}

// hotQueries is serve-hot's fixed mix: 40% snapshot, 30% short range,
// 20% kNN (k=10), 10% trajectory, all with small extents so an answer is
// a handful of ids and the work is admission, session, cached traversal
// and encoding — not result volume.
func hotQueries(n int, seed int64) []benchQuery {
	rng := rand.New(rand.NewSource(seed + seedQueries))
	out := make([]benchQuery, n)
	for i := range out {
		var q stx.Query
		switch p := i % 10; {
		case p < 4:
			q = stx.Query{Rect: window(rng, 0.02, 0.12), Interval: interval(rng, 1, 1)}
		case p < 7:
			q = stx.Query{Rect: window(rng, 0.02, 0.12), Interval: interval(rng, 2, 10)}
		case p < 9:
			q = stx.KNNQuery(rng.Float64(), rng.Float64(), rng.Int63n(horizon), 10)
		default:
			q = stx.TrajectoryQuery(window(rng, 0.02, 0.12), interval(rng, 5, 20))
		}
		out[i] = newBenchQuery("default", q)
	}
	return out
}

// coldQueries is serve-cold's list: wide snapshot windows, which a
// temporal sharding prunes to one or two shards, alternating with ranges
// of up to a tenth of the horizon, which fan out — each faulting tens to
// hundreds of pages and returning hundreds of ids.
func coldQueries(n int, seed int64) []benchQuery {
	rng := rand.New(rand.NewSource(seed + seedQueries))
	out := make([]benchQuery, n)
	for i := range out {
		var q stx.Query
		if i%2 == 0 {
			q = stx.Query{Rect: window(rng, 0.3, 0.6), Interval: interval(rng, 1, 1)}
		} else {
			q = stx.Query{Rect: window(rng, 0.08, 0.2), Interval: interval(rng, 40, horizon/10)}
		}
		out[i] = newBenchQuery("default", q)
	}
	return out
}

// oracleAnswer is the brute-force reference answer of one query.
func oracleAnswer(o *check.Oracle, q stx.Query) answer {
	switch q.Kind {
	case stx.KindKNN:
		return answer{nb: o.KNN(q.Rect.MinX, q.Rect.MinY, q.Interval.Start, q.K)}
	case stx.KindTrajectory:
		return answer{traj: o.Trajectory(q.Rect, q.Interval)}
	}
	return answer{ids: o.Query(q)}
}

// timeSlices indexes a record set by instant, so that a query's
// reference answer is a brute-force scan of the records alive during its
// interval and not of the whole set: check.Oracle decides what matches,
// this only keeps it from looking at records that cannot.
type timeSlices struct {
	records []stx.Record
	t0      int64
	aliveAt [][]int32 // aliveAt[T-t0]: records whose interval holds instant T
	startAt [][]int32 // startAt[T-t0]: records whose interval starts at T
}

func newTimeSlices(records []stx.Record) *timeSlices {
	ts := &timeSlices{records: records}
	if len(records) == 0 {
		return ts
	}
	t0, t1 := records[0].Interval.Start, records[0].Interval.Start
	for _, r := range records {
		t0, t1 = min(t0, r.Interval.Start), max(t1, r.Interval.Start)
	}
	// Instants past the last start need no slice of their own: whatever is
	// alive there (an open piece ends at Now) is alive at t1 too.
	ts.t0 = t0
	ts.aliveAt = make([][]int32, t1-t0+1)
	ts.startAt = make([][]int32, t1-t0+1)
	for i, r := range records {
		ts.startAt[r.Interval.Start-t0] = append(ts.startAt[r.Interval.Start-t0], int32(i))
		for t := r.Interval.Start; t < r.Interval.End && t <= t1; t++ {
			ts.aliveAt[t-t0] = append(ts.aliveAt[t-t0], int32(i))
		}
	}
	return ts
}

// during appends to buf[:0] a superset of the records alive at some
// instant of iv, each once: those alive at its first instant and those
// that start later inside it.
func (ts *timeSlices) during(iv stx.Interval, buf []stx.Record) []stx.Record {
	buf = buf[:0]
	if len(ts.aliveAt) == 0 || iv.End <= ts.t0 {
		return buf
	}
	last := ts.t0 + int64(len(ts.aliveAt)) - 1
	first := min(max(iv.Start, ts.t0), last)
	for _, i := range ts.aliveAt[first-ts.t0] {
		buf = append(buf, ts.records[i])
	}
	for t := first + 1; t < iv.End && t <= last; t++ {
		for _, i := range ts.startAt[t-ts.t0] {
			buf = append(buf, ts.records[i])
		}
	}
	return buf
}

// eachQuery calls fn(i, buf) for every i in [0, n), fanned over the cores;
// buf is a scratch slice owned by the calling worker, handed from one
// call to the next.
func eachQuery(n int, fn func(i int, buf []stx.Record) []stx.Record) {
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []stx.Record
			for i := w; i < n; i += workers {
				buf = fn(i, buf)
			}
		}(w)
	}
	wg.Wait()
}

// fillExpected computes every query's reference answer with
// internal/check.Oracle (answers do not depend on the fan-out).
func fillExpected(records []stx.Record, qs []benchQuery) {
	ts := newTimeSlices(records)
	eachQuery(len(qs), func(i int, buf []stx.Record) []stx.Record {
		buf = ts.during(qs[i].q.Interval, buf)
		qs[i].expect = oracleAnswer(check.NewOracle(buf), qs[i].q)
		return buf
	})
}

// wireResponse is the /query JSON answer (internal/service.queryResponse).
type wireResponse struct {
	IDs       []int64 `json:"ids"`
	Neighbors []struct {
		ID    int64   `json:"id"`
		Dist2 float64 `json:"dist2"`
	} `json:"neighbors"`
	Trajectories []struct {
		ID     int64 `json:"id"`
		Pieces int   `json:"pieces"`
	} `json:"trajectories"`
}

// parseAnswer decodes a full /query body into an answer.
func parseAnswer(body []byte) (answer, error) {
	var w wireResponse
	if err := json.Unmarshal(body, &w); err != nil {
		return answer{}, fmt.Errorf("decoding /query response: %w", err)
	}
	a := answer{ids: w.IDs}
	for _, n := range w.Neighbors {
		a.nb = append(a.nb, stx.Neighbor{ObjectID: n.ID, Dist2: n.Dist2})
	}
	for _, t := range w.Trajectories {
		a.traj = append(a.traj, stx.TrajectoryHit{ObjectID: t.ID, Pieces: t.Pieces})
	}
	return a, nil
}

// digestOf fingerprints generated inputs for the determinism check and
// the output rows: equal seeds must give equal digests.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func recordsBytes(records []stx.Record) []byte {
	buf := make([]byte, 0, len(records)*56)
	for _, r := range records {
		for _, f := range []float64{r.Rect.MinX, r.Rect.MinY, r.Rect.MaxX, r.Rect.MaxY} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Interval.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Interval.End))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ObjectID))
	}
	return buf
}

func queriesBytes(qs []benchQuery) []byte {
	var buf []byte
	for _, q := range qs {
		buf = append(buf, q.path...)
		buf = append(buf, '\n')
	}
	return buf
}
