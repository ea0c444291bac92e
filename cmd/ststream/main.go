// Command ststream runs the on-line indexer over a time-ordered
// observation feed (JSON lines from `stgen -events`), printing streaming
// statistics and, optionally, evaluating a query workload on the finished
// history.
//
// Usage:
//
//	stgen -family random -n 2000 -events -o feed.jsonl
//	ststream -i feed.jsonl -lambda 0.01
//	ststream -i feed.jsonl -lambda 0.01 -set snapshot-mixed -queries 500
//	ststream -i feed.jsonl -lambda 0.01 -wal /tmp/journal
//
// With -wal DIR the feed runs through the same durable ingestion
// pipeline stserve's -ingest mode uses (internal/ingest): every batch is
// journaled and fsynced before it is applied, the final state is frozen
// into a compressed container in DIR, and a rerun over the same
// directory recovers it instead of starting over. Without -wal the feed
// is applied in memory only (the historical behaviour).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	stx "stindex"

	"stindex/internal/ingest"
	"stindex/internal/stio"
)

func main() {
	var (
		in      = flag.String("i", "", "input observation feed (default stdin)")
		lambda  = flag.Float64("lambda", 0.01, "online split rule's per-record penalty")
		target  = flag.Float64("target", 0, "calibrate lambda for this many records per object (overrides -lambda)")
		set     = flag.String("set", "", "evaluate this standard query set after the stream ends")
		queries = flag.Int("queries", 1000, "number of queries from the set")
		seed    = flag.Int64("seed", 1, "query generation seed")
		horizon = flag.Int64("horizon", 1000, "time horizon for query placement")
		every   = flag.Int64("progress", 0, "print progress every N instants (0 = off)")
		wal     = flag.String("wal", "", "journal directory: ingest durably through the WAL pipeline instead of in memory")
		finish  = flag.Bool("finish", true, "finish all live objects after the last observation")
	)
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	obs, err := stio.ReadObservations(r)
	if err != nil {
		fatal(err)
	}
	if len(obs) == 0 {
		fatal(fmt.Errorf("empty observation feed"))
	}

	if *target > 0 {
		sample, err := objectsFromObservations(obs, 200)
		if err != nil {
			fatal(err)
		}
		l, err := stx.CalibrateLambda(sample, *target)
		if err != nil {
			fatal(err)
		}
		*lambda = l
		fmt.Fprintf(os.Stderr, "calibrated lambda=%.6f for ~%.1f records/object\n", l, *target)
	}

	last := obs[len(obs)-1].T
	var ix *stx.StreamIndex
	if *wal != "" {
		ix = runThroughWAL(*wal, *lambda, obs, last, *finish, *every)
	} else {
		var err error
		ix, err = stx.NewStreamIndex(stx.StreamOptions{Lambda: *lambda}, obs[0].T)
		if err != nil {
			fatal(err)
		}
		lastProgress := obs[0].T
		for i, o := range obs {
			if o.Final {
				err = ix.Finish(o.ObjectID, o.T)
			} else {
				err = ix.Observe(o.ObjectID, o.T, stx.Rect{
					MinX: o.Rect.MinX, MinY: o.Rect.MinY, MaxX: o.Rect.MaxX, MaxY: o.Rect.MaxY,
				})
			}
			if err != nil {
				fatal(fmt.Errorf("observation %d: %w", i+1, err))
			}
			if *every > 0 && o.T >= lastProgress+*every {
				lastProgress = o.T
				fmt.Fprintf(os.Stderr, "t=%d: %d live objects, %d records (%d cuts), %d pages\n",
					o.T, ix.Live(), ix.Records(), ix.Cuts(), ix.Pages())
			}
		}
		if *finish {
			if err := ix.FinishAll(last + 1); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "stream done at t=%d: %d records (%d online cuts), %d pages (%d KiB)\n",
		last, ix.Records(), ix.Cuts(), ix.Pages(), ix.Bytes()/1024)

	if *set == "" {
		return
	}
	qs, err := stx.GenerateQueries(stx.QuerySet(*set), *horizon, *seed)
	if err != nil {
		fatal(err)
	}
	if *queries < len(qs) {
		qs = qs[:*queries]
	}
	totalIO, totalResults := int64(0), 0
	for _, q := range qs {
		ix.ResetBuffer()
		var ids []int64
		if q.IsSnapshot() {
			ids, err = ix.Snapshot(q.Rect, q.Interval.Start)
		} else {
			ids, err = ix.Range(q.Rect, q.Interval)
		}
		if err != nil {
			fatal(err)
		}
		totalIO += ix.IOStats().IO()
		totalResults += len(ids)
	}
	fmt.Printf("set=%s queries=%d avg-io=%.2f avg-results=%.1f\n",
		*set, len(qs), float64(totalIO)/float64(len(qs)), float64(totalResults)/float64(len(qs)))
}

// runThroughWAL feeds the observations through the durable ingestion
// pipeline: per-instant batches, each journaled and fsynced before it is
// acknowledged, with a final freeze on close so a rerun recovers from
// the container instead of replaying the whole journal.
func runThroughWAL(dir string, lambda float64, obs []stio.Observation, last int64, finish bool, every int64) *stx.StreamIndex {
	in, err := ingest.Open(ingest.Config{Dir: dir, Lambda: lambda})
	if err != nil {
		fatal(err)
	}
	if st := in.Stats(); st.Seq > 0 {
		fmt.Fprintf(os.Stderr, "recovered journal at seq %d (%d replayed, %d torn bytes dropped)\n",
			st.Seq, st.Replayed, st.TornBytesRecovered)
	}
	lastProgress := obs[0].T
	start := 0
	for i := 1; i <= len(obs); i++ {
		if i < len(obs) && obs[i].T == obs[start].T {
			continue
		}
		if _, err := in.SubmitObservations(obs[start:i]); err != nil {
			fatal(fmt.Errorf("observation %d: %w", start+1, err))
		}
		if every > 0 && obs[start].T >= lastProgress+every {
			lastProgress = obs[start].T
			st := in.Stats()
			fmt.Fprintf(os.Stderr, "t=%d: %d live objects, %d records, seq %d, %d wal KiB\n",
				obs[start].T, st.LiveObjects, st.Records, st.Seq, st.WALBytes/1024)
		}
		start = i
	}
	if finish {
		if _, err := in.Submit([]ingest.Record{{Kind: ingest.RecFinishAll, T: last + 1}}); err != nil {
			fatal(err)
		}
	}
	st := in.Stats()
	if err := in.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "journal: %d records accepted in %d fsyncs (p99 %dµs), %d KiB, frozen at seq %d\n",
		st.Accepted, st.Fsyncs, st.FsyncP99US, st.WALBytes/1024, in.Seq())
	return in.Index()
}

// objectsFromObservations reconstructs up to maxObjects complete objects
// from the feed (those with a final event), for lambda calibration.
func objectsFromObservations(obs []stio.Observation, maxObjects int) ([]*stx.Object, error) {
	type track struct {
		start int64
		rects []stx.Rect
		done  bool
	}
	tracks := make(map[int64]*track)
	order := make([]int64, 0, maxObjects)
	for _, o := range obs {
		tr := tracks[o.ObjectID]
		if o.Final {
			if tr != nil {
				tr.done = true
			}
			continue
		}
		if tr == nil {
			if len(tracks) >= maxObjects {
				continue
			}
			tr = &track{start: o.T}
			tracks[o.ObjectID] = tr
			order = append(order, o.ObjectID)
		}
		tr.rects = append(tr.rects, stx.Rect{
			MinX: o.Rect.MinX, MinY: o.Rect.MinY, MaxX: o.Rect.MaxX, MaxY: o.Rect.MaxY,
		})
	}
	var out []*stx.Object
	for _, id := range order {
		tr := tracks[id]
		if !tr.done || len(tr.rects) == 0 {
			continue
		}
		o, err := stx.NewObject(id, tr.start, tr.rects)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no complete objects in the feed to calibrate on")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ststream:", err)
	os.Exit(1)
}
