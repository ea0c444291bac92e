package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	stx "stindex"

	"stindex/internal/check"
	"stindex/internal/datagen"
	"stindex/internal/stio"
)

// ingestLambda is stserve's default -ingest-lambda; the in-process
// replica that feeds the oracle must cut pieces exactly as the server.
const ingestLambda = 0.01

// liveSnapshot is the name the ingest pipeline publishes under.
const liveSnapshot = "live"

// ingestPlan is ingest-mixed's fixed operation list: one batch and one
// group of queries per barrier step.
type ingestPlan struct {
	obs      []stio.Observation // the feed prefix the run ingests, in time order
	batches  [][]byte           // prebuilt POST /ingest requests, one per step
	queries  [][]benchQuery     // the queries that run beside batch i; expect holds while step i runs
	settled  []benchQuery       // every query once more; expect holds once every batch is in
	perRound int                // steps per round; a round's last step freezes
	batch    int
	freeze   []byte // prebuilt POST /ingest/freeze
}

func (p *ingestPlan) steps() int { return len(p.batches) }

func appendObservation(buf []byte, o stio.Observation) []byte {
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendInt(buf, o.ObjectID, 10)
	buf = append(buf, `,"t":`...)
	buf = strconv.AppendInt(buf, o.T, 10)
	if o.Final {
		return append(buf, `,"final":true}`+"\n"...)
	}
	for _, f := range []struct {
		key string
		v   float64
	}{{"minx", o.Rect.MinX}, {"miny", o.Rect.MinY}, {"maxx", o.Rect.MaxX}, {"maxy", o.Rect.MaxY}} {
		buf = append(buf, `,"`...)
		buf = append(buf, f.key...)
		buf = append(buf, `":`...)
		buf = strconv.AppendFloat(buf, f.v, 'g', -1, 64)
	}
	return append(buf, "}\n"...)
}

// planIngest derives the whole run from the seed: a time-ordered feed of
// one observation per live object per instant, cut into fixed batches,
// and for every step a group of queries — half about the last few
// instants (answered by the live index), half about instants before the
// newest freeze (answered by the frozen container).
func planIngest(sc scale, rounds int, seed int64) (*ingestPlan, error) {
	steps := (rounds + 1) * sc.IngestSteps // round 0 is the untimed warm-up
	need := steps * sc.IngestBatch
	// Lifetimes average ~50 instants, so need/40 objects yield a feed
	// comfortably longer than the run ingests.
	objs, err := datagen.Random(datagen.RandomConfig{N: need/40 + 1, Horizon: horizon, Seed: seed + seedFeed})
	if err != nil {
		return nil, err
	}
	obs := stio.ObservationsFromObjects(objs)
	if len(obs) < need {
		return nil, fmt.Errorf("feed has %d events, the run needs %d", len(obs), need)
	}
	p := &ingestPlan{
		obs: obs[:need], perRound: sc.IngestSteps, batch: sc.IngestBatch,
		freeze: postRequest("/ingest/freeze", nil),
	}
	rng := rand.New(rand.NewSource(seed + seedQueries))
	var body []byte
	clock, boundary := obs[0].T, int64(0)
	for s := 0; s < steps; s++ {
		body = body[:0]
		for _, o := range p.obs[s*sc.IngestBatch : (s+1)*sc.IngestBatch] {
			body = appendObservation(body, o)
		}
		p.batches = append(p.batches, postRequest("/ingest", body))

		qs := make([]benchQuery, sc.IngestStepQuery)
		for i := range qs {
			var t int64
			if i%2 == 0 || boundary <= obs[0].T {
				t = clock - rng.Int63n(10) // recent: the live index
				if t < obs[0].T {
					t = obs[0].T
				}
			} else {
				t = obs[0].T + rng.Int63n(boundary-obs[0].T) // old: the frozen container
			}
			iv := stx.Interval{Start: t, End: t + 1}
			if i%4 == 3 {
				iv.End = t + 2 + rng.Int63n(9)
			}
			qs[i] = newBenchQuery(liveSnapshot, stx.Query{Rect: window(rng, 0.05, 0.2), Interval: iv})
		}
		p.queries = append(p.queries, qs)

		clock = p.obs[(s+1)*sc.IngestBatch-1].T
		if (s+1)%sc.IngestSteps == 0 {
			boundary = clock // this step's batch crosses -freeze-every
		}
	}
	return p, nil
}

// ingestRound is what one round of barrier steps measured.
type ingestRound struct {
	wall     time.Duration
	busy     time.Duration // sum of the batch POST latencies (feeder busy time)
	acks     []int64       // ns per batch POST
	freezeNS int64         // ack of the crossing batch → freeze published
	latency  []int64       // ns per query
	inFreeze []int64       // latencies of the queries of the freeze step
	bodies   [][]byte      // the answers, in query order, kept for verify (nil where the request failed)
	io       int64
	bytes    int64
	failed   int
	firstErr error
}

func (r *ingestRound) note(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// runIngestRound executes steps [from, to) as barrier steps: in step i
// connection a posts batch i while connection b issues that step's
// queries, and step i+1 starts only when both are done, so the work mix
// and the index state at every step are the same in every run. The last
// step's batch crosses -freeze-every: the server's freezer fires on that
// commit, and a then posts /ingest/freeze, which serialises behind it
// (or does the work itself if it gets there first) and returns once the
// freeze is published — exactly one freeze at exactly that record count
// either way. With serial set (the traced replay, which also passes a
// tracer) a step's queries run after its batch instead of beside it, and
// only the freeze still overlaps them.
//
// On the clock a query is checked for its status alone; its body is
// copied aside, and verify holds every one of them to the oracle once
// the round is over.
func (p *ingestPlan) runIngestRound(a, b *conn, from, to int, serial bool, tr *tracer) ingestRound {
	perStep := len(p.queries[from])
	queries := (to - from) * perStep
	r := ingestRound{
		acks:    make([]int64, 0, to-from),
		latency: make([]int64, 0, queries),
		bodies:  make([][]byte, 0, queries),
	}
	kept := make([]byte, 0, queries*2048) // grows, if answers are larger, without moving what is kept
	type fed struct {
		ack, freeze time.Duration
		err         error
	}
	post := func(req []byte, what string, s int) (time.Duration, error) {
		t0 := time.Now()
		status, body, err := a.do(req)
		if err == nil && status != 200 {
			err = fmt.Errorf("POST %s (step %d): status %d: %s", what, s, status, body)
		}
		return time.Since(t0), err
	}
	batch := func(s int) fed {
		start := tr.begin()
		ack, err := post(p.batches[s], "/ingest", s)
		tr.record("client.ingest", start)
		return fed{ack: ack, err: err}
	}
	done := make(chan fed, 1)
	// join posts the freeze after the round's last batch and hands the
	// feeder's outcome to the step's barrier.
	join := func(f fed, s int) {
		if s == to-1 && f.err == nil {
			f.freeze, f.err = post(p.freeze, "/ingest/freeze", s)
		}
		done <- f
	}
	t0 := time.Now()
	for s := from; s < to; s++ {
		last := s == to-1
		if serial {
			go join(batch(s), s) // the batch runs here, before the queries
		} else {
			go func() { join(batch(s), s) }()
		}
		for _, q := range p.queries[s] {
			start := tr.begin()
			q0 := time.Now()
			status, body, err := b.do(q.req)
			lat := int64(time.Since(q0))
			tr.record("client.query", start)
			r.latency = append(r.latency, lat)
			if last {
				r.inFreeze = append(r.inFreeze, lat)
			}
			if err == nil && status != 200 {
				err = fmt.Errorf("%s: status %d: %s", q.path, status, body)
			}
			if err != nil {
				r.note(err)
				r.bodies = append(r.bodies, nil)
				continue
			}
			n, _ := intField(body, `"io":`, true)
			r.io += n
			r.bytes += int64(len(body))
			kept = append(kept, body...)
			r.bodies = append(r.bodies, kept[len(kept)-len(body):])
		}
		f := <-done
		if f.err != nil {
			r.note(f.err)
		}
		r.busy += f.ack
		r.acks = append(r.acks, int64(f.ack))
		r.freezeNS += int64(f.freeze)
	}
	r.wall = time.Since(t0)
	return r
}

// verify holds every answer a round that started at step from received to
// the oracle's bounds for the step it was given in (see fillBounds), and
// returns how many fell outside them.
func (p *ingestPlan) verify(from int, r *ingestRound) (failed int, firstErr error) {
	perStep := len(p.queries[from])
	for k, body := range r.bodies {
		if body == nil {
			continue // already counted: the request itself failed
		}
		q := &p.queries[from+k/perStep][k%perStep]
		if err := checkBody(q, body, true); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("step %d: %w", from+k/perStep, err)
			}
		}
	}
	return failed, firstErr
}

// replica replays the feed into an in-process stream index configured
// like the server's, and returns the lifetime pieces it cut.
func (p *ingestPlan) replica() ([]stx.Record, error) {
	six, err := stx.NewStreamIndex(stx.StreamOptions{Lambda: ingestLambda}, p.obs[0].T)
	if err != nil {
		return nil, err
	}
	for _, o := range p.obs {
		if o.Final {
			err = six.Finish(o.ObjectID, o.T)
		} else {
			err = six.Observe(o.ObjectID, o.T, stx.Rect{MinX: o.Rect.MinX, MinY: o.Rect.MinY, MaxX: o.Rect.MaxX, MaxY: o.Rect.MaxY})
		}
		if err != nil {
			return nil, fmt.Errorf("replica: %w", err)
		}
	}
	return six.PieceRecords()
}

// fillBounds computes, with internal/check.Oracle, what every query may
// answer: while its own step runs (queries) and once every batch is in
// (settled). The reference is a pair of bounds, not one set, for two
// reasons. A query of step i races batch i, so the index it meets lies
// anywhere between "batches 0..i-1 applied" and "batches 0..i applied".
// And the stream index grows the rectangle of an open piece in place as
// observations arrive, while version copies of the piece made before a
// growth keep the rectangle they were copied with, so a query about an
// instant before the growth can see the smaller rectangle.
//
// At least: every object with an observation that was acked before the
// step began, lies at an instant of the query and whose observed
// rectangle intersects the window — acked means visible, through every
// freeze and hot-swap. At most: every object with a lifetime piece (as an
// in-process replica of the feed cuts them) that existed by the end of
// the step, whose final rectangle intersects the window and which is
// alive at an instant of the query — where a piece the step's batch may
// still find open counts as alive for ever, as an open piece is.
func (p *ingestPlan) fillBounds() error {
	pieces, err := p.replica()
	if err != nil {
		return err
	}
	ts := newTimeSlices(pieces)
	perStep := len(p.queries[0])
	p.settled = make([]benchQuery, 0, p.steps()*perStep)
	for _, qs := range p.queries {
		p.settled = append(p.settled, qs...)
	}
	eachQuery(len(p.settled), func(k int, buf []stx.Record) []stx.Record {
		step := k / perStep
		firstT, lastT := p.obs[step*p.batch].T, p.obs[(step+1)*p.batch-1].T
		q := &p.queries[step][k%perStep]
		q.expect, buf = p.bounds(ts, q.q, step*p.batch, firstT, lastT, buf)
		p.settled[k].expect, buf = p.bounds(ts, q.q, len(p.obs), math.MaxInt64, math.MaxInt64, buf)
		return buf
	})
	return nil
}

// bounds is the reference for q against an index that holds the first
// acked observations of the feed for certain, and at most the pieces
// that start by lastT, those not closed before firstT still open.
func (p *ingestPlan) bounds(ts *timeSlices, q stx.Query, acked int, firstT, lastT int64, buf []stx.Record) (answer, []stx.Record) {
	// The feed is in time order: the observations of the query's instants
	// are one contiguous run of it.
	lo := sort.Search(acked, func(j int) bool { return p.obs[j].T >= q.Interval.Start })
	hi := sort.Search(acked, func(j int) bool { return p.obs[j].T >= q.Interval.End })
	buf = buf[:0]
	for _, o := range p.obs[lo:hi] {
		if !o.Final {
			buf = append(buf, stx.Record{
				Rect:     stx.Rect{MinX: o.Rect.MinX, MinY: o.Rect.MinY, MaxX: o.Rect.MaxX, MaxY: o.Rect.MaxY},
				Interval: stx.Interval{Start: o.T, End: o.T + 1},
				ObjectID: o.ObjectID,
			})
		}
	}
	a := answer{bounded: true, atLeast: check.NewOracle(buf).Query(q)}

	buf = ts.during(q.Interval, buf)
	if firstT != math.MaxInt64 {
		// The pieces the step's batch may find open or open itself: alive
		// just before it, or started during it.
		open := ts.during(stx.Interval{Start: firstT - 1, End: lastT + 1}, nil)
		buf = append(buf, open...)
	}
	kept := buf[:0]
	for _, r := range buf {
		if r.Interval.Start > lastT {
			continue
		}
		if r.Interval.End >= firstT {
			r.Interval.End = math.MaxInt64
		}
		kept = append(kept, r)
	}
	a.ids = check.NewOracle(kept).Query(q)
	return a, buf
}

// finalPass asks every query of the run once more of the quiescent server
// — the last freeze covers every acked record, so the frozen container
// and the live index both hold the final state — and checks each full
// answer against the settled bounds.
func (p *ingestPlan) finalPass(conns []*conn) queryRound {
	return replayQueries(conns, p.settled, make([]int64, len(p.settled)), true, nil)
}

// adopt takes the bounds another plan of the same seed has computed.
func (p *ingestPlan) adopt(ref *ingestPlan) {
	for s, qs := range p.queries {
		for i := range qs {
			qs[i].expect = ref.queries[s][i].expect
		}
	}
	p.settled = ref.settled
}

// serverArgs are stserve's flags for ingest-mixed.
func (p *ingestPlan) serverArgs(journal string) []string {
	return []string{
		"-ingest", liveSnapshot, "-ingest-dir", journal,
		"-freeze-every", strconv.Itoa(p.perRound * p.batch),
		"-cache-mb", "16",
	}
}

// ingestSeries collects what the repetitions of an ingest-mixed run
// measure: one value per round for the timings, one per repetition for
// the rest.
type ingestSeries struct {
	qps, p50, rps, cpu, ioq []float64
	setups, rss             []float64
	bytesPerRecord          float64
	verified                int
}

// ingestRep is one repetition: an empty journal, a fresh stserve, the
// warm-up round, the timed rounds, then quiescence — the /metrics
// invariants, the final pass, a clean stop. ref carries the oracle's
// bounds from the first repetition to the later ones.
func ingestRep(rc *runCtx, ref **ingestPlan, res *result, acc *ingestSeries) error {
	dir, err := rc.dataDir(wIngestMixed)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "journal")
	if err := os.Mkdir(journal, 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	plan, err := planIngest(rc.scale, rc.rounds, rc.seed)
	if err != nil {
		return err
	}
	srv, err := startServer(rc.serverBin, filepath.Join(dir, "stserve.log"), rc.deadline, plan.serverArgs(journal)...)
	if err != nil {
		return err
	}
	defer srv.kill() // a no-op once stop has reaped it
	watchdog := time.AfterFunc(time.Until(rc.deadline), srv.kill)
	defer watchdog.Stop()
	a, err := dial(srv.addr)
	if err != nil {
		return err
	}
	defer a.close()
	b, err := dial(srv.addr)
	if err != nil {
		return err
	}
	defer b.close()
	warm := plan.runIngestRound(a, b, 0, plan.perRound, false, nil)
	acc.setups = append(acc.setups, time.Since(t0).Seconds())

	// The oracle's scan is the benchmark's cost, not the system's: it runs
	// here, off every clock, once per run.
	if *ref == nil {
		if err := plan.fillBounds(); err != nil {
			return err
		}
		rc.corrupt(&plan.queries[0][0].expect)
		*ref = plan
		res.Inputs["feed"] = digestOf(plan.batches...)
		res.Inputs["queries"] = digestOf(queriesBytes(plan.settled))
	} else {
		plan.adopt(*ref)
	}
	perStep := len(plan.queries[0])
	roundOps := plan.perRound * (1 + perStep)
	account := func(from int, round *ingestRound) {
		res.count(roundOps, round.failed, round.firstErr)
		failed, firstErr := plan.verify(from, round)
		res.count(0, failed, firstErr)
	}
	account(0, &warm)

	pid := srv.cmd.Process.Pid
	for r := 1; r <= rc.rounds; r++ {
		cpu0, err := cpuSeconds(pid)
		if err != nil {
			return err
		}
		var round ingestRound
		withGCOff(func() {
			round = plan.runIngestRound(a, b, r*plan.perRound, (r+1)*plan.perRound, false, nil)
		})
		cpu1, err := cpuSeconds(pid)
		if err != nil {
			return err
		}
		account(r*plan.perRound, &round)
		nq := float64(plan.perRound * perStep)
		acc.qps = append(acc.qps, nq/round.wall.Seconds())
		acc.p50 = append(acc.p50, medianUS(round.latency))
		acc.rps = append(acc.rps, float64(plan.perRound*plan.batch)/round.busy.Seconds())
		acc.cpu = append(acc.cpu, cpu1-cpu0)
		acc.ioq = append(acc.ioq, float64(round.io)/nq)
	}

	// Quiescence: the last round's freeze is published and covers every
	// acked record. The invariants of /metrics gate the run.
	m, err := srv.metrics()
	if err != nil {
		return err
	}
	sent := int64(plan.steps() * plan.batch)
	switch in := m.Ingest; {
	case in == nil:
		res.fail("/metrics has no ingest block")
	case in.Accepted != sent || in.WALRecords != sent:
		res.fail("/metrics: accepted=%d wal_records_written=%d, want both %d", in.Accepted, in.WALRecords, sent)
	case in.Rejected != 0 || in.Invalid != 0 || in.FreezeErrors != 0 || in.Latched != "":
		res.fail("/metrics: rejected=%d invalid=%d freeze_errors=%d latched=%q", in.Rejected, in.Invalid, in.FreezeErrors, in.Latched)
	case in.Freezes != int64(rc.rounds+1) || in.LastFreezeSeq != uint64(sent):
		res.fail("/metrics: freezes=%d last_freeze_seq=%d, want %d freezes, the last at %d", in.Freezes, in.LastFreezeSeq, rc.rounds+1, sent)
	}
	if m.Failed != 0 || m.Rejected != 0 || m.TimedOut != 0 {
		res.fail("/metrics: failed=%d rejected=%d timed_out=%d, want all 0", m.Failed, m.Rejected, m.TimedOut)
	}
	final := plan.finalPass([]*conn{a, b})
	res.count(len(final.latency), final.failed, final.firstErr)
	disk, err := dirBytes(journal)
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return err
	}
	watchdog.Stop()
	if err := srv.stop(rc.deadline); err != nil {
		return err
	}
	acc.rss = append(acc.rss, rss)
	acc.bytesPerRecord = float64(disk) / float64(sent)
	acc.verified += (rc.rounds+1)*plan.perRound*perStep + len(final.latency)
	return nil
}

func runIngestMixed(rc *runCtx) (*result, error) {
	res := rc.newResult(wIngestMixed)
	var ref *ingestPlan
	var acc ingestSeries
	for rep := 0; rep < rc.scale.Reps; rep++ {
		if err := ingestRep(rc, &ref, res, &acc); err != nil {
			return nil, err
		}
	}
	res.setSeries(mSetupS, acc.setups)
	res.setSeries(mQPS, acc.qps)
	res.setSeries(mQueryP50US, acc.p50)
	res.setSeries(mRecordsPerS, acc.rps)
	res.setSeries(mCPUS, acc.cpu)
	res.setSeries(mRSSMB, acc.rss)
	res.setSeries(mIOPerQuery, acc.ioq)
	res.Metrics[mBytesPerRecord] = acc.bytesPerRecord
	res.Counts["records"] = ref.steps() * ref.batch
	res.Counts["batch"] = ref.batch
	res.Counts["steps_per_round"] = ref.perRound
	res.Counts["queries_per_step"] = len(ref.queries[0])
	res.Counts["freezes"] = rc.rounds + 1
	res.Counts["verified_answers"] = acc.verified
	return res, nil
}
